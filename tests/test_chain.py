"""Compact weighted chain storage: append/increment, expansion, moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dramp.chain import (
    ChainRow,
    CompactChain,
    WeightedMoments,
    to_verbose,
)
from dramp.errors import DimensionMismatch, EmptyRange


def mk_row(state, weight=1, logf=0.0, pid=1):
    return ChainRow(
        process_id=pid,
        dr_stage=0,
        mean_acceptance_rate=1.0,
        adaptation_measure=0.0,
        burnin_location=0,
        weight=weight,
        log_func=logf,
        state=np.atleast_1d(np.asarray(state, dtype=float)),
    )


class TestAppendOrIncrement:
    def test_empty_plus_state_is_one_row(self):
        ch = CompactChain(dimension=1)
        ch.append_row(mk_row([1.0]))
        assert ch.n_rows == 1
        assert ch.weights[0] == 1

    def test_repeat_increments_weight(self):
        ch = CompactChain(dimension=1)
        ch.append_row(mk_row([1.0]))
        ch.increment_last(1)
        assert ch.n_rows == 1
        assert ch.weights[0] == 2

    def test_reappearance_is_a_new_row(self):
        ch = CompactChain(dimension=1)
        ch.append_row(mk_row([1.0], weight=2))
        ch.append_row(mk_row([2.0]))
        ch.append_row(mk_row([1.0]))
        assert ch.n_rows == 3
        assert list(ch.weights) == [2, 1, 1]
        logfs, states = to_verbose(ch)
        assert list(states[:, 0]) == [1.0, 1.0, 2.0, 1.0]

    def test_weight_must_be_positive(self):
        ch = CompactChain(dimension=1)
        with pytest.raises(ValueError):
            ch.append_row(mk_row([0.0], weight=0))

    def test_state_shape_checked(self):
        ch = CompactChain(dimension=2)
        with pytest.raises(DimensionMismatch):
            ch.append_row(mk_row([0.0]))


class TestVerboseExpansion:
    def test_single_row_expands_by_weight(self):
        ch = CompactChain(dimension=1)
        ch.append_row(mk_row([7.0], weight=3))
        logfs, states = to_verbose(ch)
        assert states.shape == (3, 1)
        assert np.all(states == 7.0)
        assert logfs.shape == (3,)

    def test_two_rows(self):
        ch = CompactChain(dimension=1)
        ch.append_row(mk_row([1.0], weight=2))
        ch.append_row(mk_row([2.0], weight=1))
        logfs, states = to_verbose(ch)
        assert list(states[:, 0]) == [1.0, 1.0, 2.0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-10, max_value=10, allow_nan=False),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_round_trip_rebuild(self, spec_rows):
        # consecutive equal states in the hypothesis draw merge on rebuild,
        # so the reference chain merges them too
        def visit(chain, state, logf=0.0):
            if chain.n_rows and np.array_equal(chain.last_state(), state):
                chain.increment_last(1)
            else:
                chain.append_row(mk_row(state, logf=logf))

        ch = CompactChain(dimension=1)
        for value, weight in spec_rows:
            for _ in range(weight):
                visit(ch, [value])
        logfs, states = to_verbose(ch)
        rebuilt = CompactChain(dimension=1)
        for k in range(states.shape[0]):
            visit(rebuilt, states[k], float(logfs[k]))
        assert rebuilt.n_rows == ch.n_rows
        assert np.array_equal(rebuilt.weights[: ch.n_rows], ch.weights[: ch.n_rows])
        assert np.array_equal(rebuilt.states[: ch.n_rows], ch.states[: ch.n_rows])

    def test_verbose_starts_are_cumulative_weights(self):
        ch = CompactChain(dimension=1)
        ch.append_row(mk_row([1.0], weight=2))
        ch.append_row(mk_row([2.0], weight=3))
        ch.append_row(mk_row([3.0], weight=1))
        assert list(ch.verbose_starts) == [0, 2, 5]
        assert ch.verbose_length == 6


class TestWeightedMoments:
    def test_matches_batch_computation(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((200, 3))
        ws = rng.integers(1, 6, size=200).astype(float)
        acc = WeightedMoments(3)
        for lo, hi in ((0, 1), (1, 60), (60, 61), (61, 200)):
            acc.update(xs[lo:hi], ws[lo:hi])
        mean = (ws @ xs) / ws.sum()
        centered = xs - mean
        cov = (centered.T * ws) @ centered / ws.sum()
        assert np.allclose(acc.mean, mean)
        assert np.allclose(acc.covariance(), cov)

    def test_replay_is_bitwise(self):
        rng = np.random.default_rng(6)
        xs = rng.standard_normal((50, 2))
        a, b = WeightedMoments(2), WeightedMoments(2)
        for lo in range(0, 50, 7):
            block = xs[lo:lo + 7]
            a.update(block, np.full(len(block), 2.0))
            b.update(block.copy(), np.full(len(block), 2.0))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.m2, b.m2)

    def test_empty_covariance_rejected(self):
        with pytest.raises(EmptyRange):
            WeightedMoments(1).covariance()


class TestChainBookkeeping:
    def test_increment_last_adds_weight(self):
        ch = CompactChain(dimension=1)
        ch.append_row(mk_row([1.0]))
        ch.increment_last(3)
        assert ch.weights[0] == 4
        assert ch.verbose_length == 4

    def test_growth_preserves_rows(self):
        ch = CompactChain(dimension=1)
        for v in range(3000):  # crosses the initial capacity
            ch.append_row(mk_row([float(v)]))
        assert ch.n_rows == 3000
        assert ch.states[1500, 0] == 1500.0

    def test_row_round_trip(self):
        ch = CompactChain(dimension=2)
        original = mk_row([1.5, -2.5], weight=3, logf=-0.25, pid=7)
        ch.append_row(original)
        got = ch.row(0)
        assert got.process_id == 7
        assert got.weight == 3
        assert got.log_func == -0.25
        assert np.array_equal(got.state, [1.5, -2.5])
