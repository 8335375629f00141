"""Autocorrelation estimation, two-phase decorrelation, and the KS-based
cross-chain comparison.

The frozen AR(1) value is the load-bearing oracle for the IAC estimator: the
analytic IAC of an AR(1) series with coefficient rho is (1+rho)/(1-rho), so
rho = 0.5 must come out near 3; a direct lag-sum computation of the same
estimator pins the FFT route and its window. The KS statistic gets a
brute-force ECDF scan as an independent route wherever a value is frozen.
"""

import math

import numpy as np
import pytest
from scipy import signal, stats

from dramp import refine as refine_mod
from dramp.chain import ChainRow, CompactChain
from dramp.errors import EmptySample, SeriesTooShort
from dramp.refine import (
    ConvergenceCheck,
    RefinedSample,
    _fft_length,
    _sokal_iac,
    cross_chain_check,
    estimate_iac,
    ks_two_sample,
    refine_two_phase,
)


def mk_row(state, logf, weight=1, burnin=0):
    return ChainRow(
        process_id=1,
        dr_stage=0,
        mean_acceptance_rate=0.0,
        adaptation_measure=0.0,
        burnin_location=burnin,
        weight=weight,
        log_func=float(logf),
        state=np.atleast_1d(np.asarray(state, dtype=float)),
    )


def as_chain(points, log_funcs, weights=None, last_burnin=0):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    ch = CompactChain(pts.shape[1])
    n = pts.shape[0]
    for k in range(n):
        w = 1 if weights is None else int(weights[k])
        b = last_burnin if k == n - 1 else 0
        ch.append_row(mk_row(pts[k], log_funcs[k], weight=w, burnin=b))
    return ch


def sticky_normal_chain(seed, steps=100_000, sigma=0.1):
    """Metropolis on a unit normal with a deliberately tiny proposal.

    Acceptance sits near 1 and the autocorrelation time near 250, the
    worst case the two-phase procedure is built for.
    """
    r = np.random.default_rng(seed)
    z = r.standard_normal(steps - 1) * sigma
    lnu = np.log1p(-r.random(steps - 1))  # ln of a uniform on (0,1]
    states, weights, logfs = [0.0], [1], [0.0]
    x, logx = 0.0, 0.0
    for i in range(steps - 1):
        y = x + z[i]
        logy = -0.5 * y * y
        if lnu[i] < logy - logx:
            states.append(y)
            weights.append(1)
            logfs.append(logy)
            x, logx = y, logy
        else:
            weights[-1] += 1
    return as_chain(np.asarray(states), logfs, weights=weights)


@pytest.fixture(scope="module")
def sticky_refined():
    chain = sticky_normal_chain(seed=1)
    return chain, refine_two_phase(chain)


def lag_sum_iac(series):
    """Sokal's estimator from direct lag sums, the FFT route's oracle: the
    IAC 1 + 2 * sum of autocorrelations at lags 1..M, at the smallest M with
    M >= 5 * IAC(M), clamped below at 1; and that M."""
    centered = series - series.mean()
    var = float(np.dot(centered, centered))
    iac = 1.0
    for lag in range(1, series.size):
        iac += 2.0 * float(np.dot(centered[:-lag], centered[lag:])) / var
        if lag >= 5.0 * iac:
            return max(1.0, iac), lag
    return max(1.0, iac), series.size - 1


def smooth_lengths(limit):
    """Every 2^a 3^b 5^c up to ``limit``, by trial division."""
    lengths = []
    for m in range(1, limit + 1):
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            lengths.append(m)
    return lengths


class TestEstimateIac:
    def test_fft_length_is_the_least_smooth_length_reaching_n(self):
        smooth = np.array(smooth_lengths(40_000))
        for n in range(1, 20_001):
            assert _fft_length(n) == smooth[np.searchsorted(smooth, n)], n
        # 2n with a large prime factor, where numpy's FFT falls back to
        # Bluestein's algorithm: phase 2 lengths of fork-join runs
        assert [_fft_length(2 * n) for n in (1999, 2267, 2307, 2559)] == [
            4000, 4608, 4800, 5120]

    @pytest.mark.parametrize("name", ["ar1", "ar1-prime", "alternating"])
    def test_fft_matches_the_lag_sum_oracle(self, name):
        if name.startswith("ar1"):
            # 2267 is prime: the transforms run at 4608, not 2n = 4534
            n = 20_000 if name == "ar1" else 2267
            eps = np.random.default_rng(13).standard_normal(n)
            series = signal.lfilter([1.0], [1.0, -0.5], eps)
        else:
            series = np.array([1.0, -1.0] * 256)
        iacs, windows = _sokal_iac(series[:, None])
        iac, window = float(iacs[0]), int(windows[0])
        want_iac, want_window = lag_sum_iac(series)
        assert window == want_window
        assert iac == pytest.approx(want_iac, abs=1e-12)
        if name == "alternating":
            assert (iac, window) == (1.0, 1)
        elif name == "ar1":
            assert 2.5 < iac < 3.5

    def test_columns_in_one_batch_match_each_column_alone(self, monkeypatch):
        # one batch of four columns, one of them constant, against each
        # column transformed alone
        eps = np.random.default_rng(14).standard_normal((3, 500))
        cols = [signal.lfilter([1.0], [1.0, -rho], e)
                for rho, e in zip((0.3, 0.7, 0.95), eps)]
        points = np.column_stack(cols[:2] + [np.full(500, 1.5)] + cols[2:])
        iacs, windows = _sokal_iac(points)
        assert (iacs[2], windows[2]) == (1.0, 0)
        monkeypatch.setattr(refine_mod, "_BATCH_POINTS", 1)
        for j in range(4):
            alone_iac, alone_window = _sokal_iac(points[:, j:j + 1])
            assert windows[j] == alone_window[0]
            assert iacs[j] == pytest.approx(alone_iac[0], abs=1e-12)
            assert _sokal_iac(points)[0][j] == alone_iac[0]

    def test_independent_samples_have_unit_iac(self):
        x = np.random.default_rng(1).standard_normal(100_000)
        assert estimate_iac(x) == pytest.approx(1.0, abs=0.1)

    def test_ar1_matches_the_analytic_value(self):
        # IAC of AR(1) is (1+rho)/(1-rho) = 3 at rho = 0.5
        eps = np.random.default_rng(12).standard_normal(1_000_000)
        series = signal.lfilter([1.0], [1.0, -0.5], eps)
        assert estimate_iac(series) == pytest.approx(3.0, abs=0.15)

    def test_constant_series_is_one_by_convention(self):
        assert estimate_iac(np.full(500, 2.5)) == 1.0

    def test_anticorrelated_series_clamps_at_one(self):
        x = np.array([1.0, -1.0] * 256)
        assert estimate_iac(x) == 1.0

    def test_short_series_raises(self):
        with pytest.raises(SeriesTooShort):
            estimate_iac(np.arange(7, dtype=float))
        # weights count toward the effective length
        estimate_iac(np.array([0.0, 1.0]), weights=[4, 4])
        with pytest.raises(SeriesTooShort):
            estimate_iac(np.array([0.0, 1.0]), weights=[3, 4])

    def test_weight_length_mismatch_raises(self):
        with pytest.raises(SeriesTooShort):
            estimate_iac(np.arange(10, dtype=float), weights=[1, 2])

    def test_weights_equal_explicit_expansion(self):
        r = np.random.default_rng(6)
        x = r.standard_normal(400)
        w = r.integers(1, 5, size=400)
        assert estimate_iac(x, weights=w) == estimate_iac(np.repeat(x, w))

    def test_affine_invariance(self):
        eps = np.random.default_rng(9).standard_normal(20_000)
        series = signal.lfilter([1.0], [1.0, -0.7], eps)
        a = estimate_iac(series)
        b = estimate_iac(-3.7 * series + 12.0)
        assert b == pytest.approx(a, rel=1e-9)

    def test_multi_takes_the_max_over_dimensions(self):
        # the correlated column, not the first one, sets the first stride
        r = np.random.default_rng(8)
        iid = r.standard_normal(5000)
        ar = signal.lfilter([1.0], [1.0, -0.6], r.standard_normal(5000))
        per_dimension = (estimate_iac(iid), estimate_iac(ar))
        assert 1.0 <= per_dimension[0] < per_dimension[1]
        refined = refine_two_phase(as_chain(np.column_stack([iid, ar]), np.zeros(5000)))
        assert refined.rounds[0].iac_aggregate == max(per_dimension)


class TestRefineTwoPhase:
    @pytest.mark.parametrize("n", [50, 200, 5000])
    def test_independent_chain_keeps_everything(self, n):
        pts = np.random.default_rng(3).standard_normal((n, 2))
        ref = refine_two_phase(as_chain(pts, -0.5 * np.sum(pts * pts, axis=1)))
        assert ref.points.shape == (n, 2)
        assert ref.rounds == ()
        assert ref.source_verbose_length == n
        assert np.array_equal(ref.points, pts)

    def test_single_repeated_state_collapses_to_one_point(self):
        ch = CompactChain(1)
        ch.append_row(mk_row([2.5], -3.125, weight=1000))
        ref = refine_two_phase(ch)
        assert ref.points.shape == (1, 1)
        assert ref.points[0, 0] == 2.5
        assert ref.log_funcs[0] == -3.125
        assert ref.source_verbose_length == 1000

    def test_correlated_chain_thins_with_decreasing_counts(self):
        n = 4000
        x = np.empty(n)
        x[0] = 0.0
        e = np.random.default_rng(4).standard_normal(n)
        for i in range(1, n):
            x[i] = 0.9 * x[i - 1] + e[i]
        ref = refine_two_phase(as_chain(x, -0.5 * x * x))
        assert len(ref.rounds) >= 1
        counts = [r.kept_count for r in ref.rounds]
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert all(r.phase in (1, 2) for r in ref.rounds)
        phases = [r.phase for r in ref.rounds]
        assert phases == sorted(phases)  # phase 1 rounds precede phase 2
        assert ref.points.shape[0] == counts[-1] < n
        assert all(r.iac_aggregate >= 1.0 for r in ref.rounds)

    def test_each_phase_thins_once_by_its_stride(self):
        # ceil(1.75 IAC) over the unique states, then ceil(1.25 IAC) over the
        # survivors repeated by weight
        r = np.random.default_rng(14)
        x = signal.lfilter([1.0], [1.0, -0.9], r.standard_normal(4000))
        w = r.integers(1, 6, size=4000)
        ref = refine_two_phase(as_chain(x, -0.5 * x * x, weights=w))
        first, second = ref.rounds
        assert (first.phase, second.phase) == (1, 2)
        assert first.iac_aggregate == estimate_iac(x)
        stride = math.ceil(1.75 * first.iac_aggregate)
        assert first.kept_count == w[::stride].sum()
        expanded = np.repeat(x[::stride], w[::stride])
        assert second.iac_aggregate == estimate_iac(expanded)
        stride = math.ceil(1.25 * second.iac_aggregate)
        assert np.array_equal(ref.points[:, 0], expanded[::stride])
        assert second.kept_count == ref.points.shape[0]

    def test_burnin_drop_keeps_a_partial_first_weight(self):
        r = np.random.default_rng(5)
        tail = r.standard_normal(120)
        pts = np.concatenate([[2.0], tail])  # marker state, exact-match safe
        logf = -0.5 * pts * pts
        # verbose index 1 lands inside the first row's weight of 3
        ch = as_chain(pts, logf, weights=[3] + [1] * 120, last_burnin=1)
        ref = refine_two_phase(ch)
        assert int(np.sum(ref.points[:, 0] == 2.0)) == 2
        assert ref.points.shape[0] == 122
        # a stamp past the row drops it entirely
        ch = as_chain(pts, logf, weights=[3] + [1] * 120, last_burnin=3)
        ref = refine_two_phase(ch)
        assert not np.any(ref.points[:, 0] == 2.0)
        assert ref.points.shape[0] == 120

    def test_too_short_after_burnin_raises(self):
        pts = np.arange(5, dtype=float)
        with pytest.raises(SeriesTooShort):
            refine_two_phase(as_chain(pts, -pts))
        with pytest.raises(SeriesTooShort):
            refine_two_phase(CompactChain(1))

    def test_sticky_chain_decorrelates(self, sticky_refined):
        chain, ref = sticky_refined
        pts = ref.points[:, 0]
        assert pts.size >= 50
        rho1 = np.corrcoef(pts[:-1], pts[1:])[0, 1]
        assert abs(rho1) < 0.1
        # each phase thins at most once, phase 1 first, and each round
        # keeps fewer verbose points than the one before it
        phases = [r.phase for r in ref.rounds]
        assert 1 in phases
        assert phases == sorted(set(phases))
        counts = [r.kept_count for r in ref.rounds]
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert ref.source_verbose_length == 100_000

    def test_refinement_is_idempotent(self, sticky_refined):
        _, ref = sticky_refined
        again = refine_two_phase(as_chain(ref.points, ref.log_funcs))
        assert again.points.shape[0] >= 0.95 * ref.points.shape[0]

    def test_sticky_yield_within_factor_two_of_ideal(self, sticky_refined):
        chain, ref = sticky_refined
        verbose = np.repeat(chain.states[:, 0], chain.weights)
        ideal = verbose.size / estimate_iac(verbose)
        assert ideal / 2 <= ref.points.shape[0] <= ideal * 2


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.array([0.3, -1.2, 4.5, 0.0, 2.2])
        d, p = ks_two_sample(a, a)
        assert d == 0.0
        assert p > 0.999

    def test_disjoint_supports(self):
        d, p = ks_two_sample(np.linspace(0.1, 0.9, 40), np.linspace(2.1, 2.9, 30))
        assert d == 1.0
        assert p < 1e-6

    def test_quarter_offset_quartets(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [1.5, 2.5, 3.5, 4.5]
        d, _ = ks_two_sample(a, b)
        assert d == 0.25
        # independent route: scan every jump point of either ECDF
        xa, xb = np.asarray(a), np.asarray(b)
        gaps = [
            abs(np.mean(xa <= t) - np.mean(xb <= t))
            for t in np.concatenate([xa, xb])
        ]
        assert max(gaps) == 0.25

    def test_matches_reference_implementation(self):
        r = np.random.default_rng(20)
        a = r.standard_normal(80)
        b = r.standard_normal(120) * 1.4
        d, p = ks_two_sample(a, b)
        ref = stats.ks_2samp(a, b, method="asymp")
        assert d == ref.statistic
        assert p == pytest.approx(ref.pvalue, abs=0.05)
        assert 0.0 <= p <= 1.0

    def test_symmetry_and_monotone_invariance(self):
        r = np.random.default_rng(21)
        a = r.standard_normal(50)
        b = r.standard_normal(70) + 0.4
        d1, p1 = ks_two_sample(a, b)
        d2, p2 = ks_two_sample(b, a)
        assert (d1, p1) == (d2, p2)
        d3, _ = ks_two_sample(np.exp(a), np.exp(b))
        assert d3 == d1

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            ks_two_sample([], [1.0])
        with pytest.raises(EmptySample):
            ks_two_sample([1.0], [])


def iid_refined(seed, n=1500, shift=0.0):
    pts = np.random.default_rng(seed).standard_normal((n, 1)) + shift
    return RefinedSample(1, pts, -0.5 * pts[:, 0] ** 2, n, ())


class TestCrossChainCheck:
    def test_same_target_chains_pass(self):
        chk = cross_chain_check([iid_refined(s) for s in (10, 11, 12, 13)])
        assert isinstance(chk, ConvergenceCheck)
        assert len(chk.entries) == 6  # 4 choose 2 pairs, one dimension
        assert chk.corrected_alpha == pytest.approx(0.01 / 6)
        assert chk.all_pass
        assert [e for e in chk.entries if e[4] <= chk.corrected_alpha] == []

    def test_bonferroni_level_counts_pairs_and_dimensions(self):
        # 4 chains at d = 2: 6 pairs x 2 dimensions
        refined = []
        for seed in (10, 11, 12, 13):
            pts = np.random.default_rng(seed).standard_normal((400, 2))
            refined.append(RefinedSample(2, pts, -0.5 * (pts ** 2).sum(1), 400, ()))
        chk = cross_chain_check(refined)
        assert len(chk.entries) == 12
        assert chk.corrected_alpha == 0.01 / (6 * 2)

    def test_autocorrelated_points_count_at_their_effective_size(self):
        # the same pair of AR(0.9) samples: as independent points the KS
        # test flags them, at n / IAC it does not
        eps = np.random.default_rng(3).standard_normal((2, 2000))
        a, b = (signal.lfilter([1.0], [1.0, -0.9], e) for e in eps)
        iac_a, iac_b = estimate_iac(a), estimate_iac(b)
        assert iac_a > 5 and iac_b > 5
        d, p_independent = ks_two_sample(a, b)
        d_eff, p = ks_two_sample(a, b, iac_a, iac_b)
        assert d_eff == d
        assert p_independent < 1e-3 < p
        want = stats.kstwobign.sf(math.sqrt((2000 / iac_a) * (2000 / iac_b)
                                            / (2000 / iac_a + 2000 / iac_b)) * d)
        assert p == pytest.approx(want, abs=1e-9)
        refined = [RefinedSample(1, x[:, None], -0.5 * x ** 2, 2000, ())
                   for x in (a, b)]
        assert cross_chain_check(refined).entries[0][4] == p

    def test_shifted_chain_is_flagged_not_fatal(self):
        refined = [iid_refined(10), iid_refined(11), iid_refined(12, shift=5.0), iid_refined(13)]
        chk = cross_chain_check(refined)
        assert not chk.all_pass
        failures = [e for e in chk.entries if e[4] <= chk.corrected_alpha]
        assert len(failures) == 3
        assert all(2 in (e[0], e[1]) for e in failures)

    def test_fewer_than_two_chains_is_vacuous(self):
        chk = cross_chain_check([iid_refined(10)])
        assert chk.entries == ()
        assert chk.all_pass
