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

    def test_fields_lay_out_the_row(self):
        ch = CompactChain(dimension=2)
        ch.append_row(mk_row([1.5, -2.5], weight=3, logf=-0.25, pid=7))
        ch.append_row(mk_row([0.0, 4.0]))
        got = ch.fields(0)
        row = ch.row(0)
        assert got == (7, row.dr_stage, row.mean_acceptance_rate,
                       row.adaptation_measure, row.burnin_location, 3, -0.25,
                       1.5, -2.5)
        assert [type(v) for v in got] == [int] * 2 + [float] * 2 + [int] * 2 + [float] * 3
        with pytest.raises(IndexError):
            ch.fields(2)
        with pytest.raises(IndexError):
            ch.fields(-1)


# the chain's columns in ChainRow's field order, then the derived one
ROW_COLUMNS = (
    "process_ids",
    "dr_stages",
    "mean_acceptance_rates",
    "adaptation_measures",
    "burnin_locations",
    "weights",
    "log_funcs",
    "states",
)


def random_rows(seed, n, d):
    r = np.random.default_rng(seed)
    return [
        ChainRow(
            process_id=int(r.integers(0, 9)),
            dr_stage=int(r.integers(0, 3)),
            mean_acceptance_rate=float(r.random()),
            adaptation_measure=float(r.random()),
            burnin_location=int(r.integers(0, 100)),
            weight=int(r.integers(1, 9)),
            log_func=float(r.standard_normal()),
            state=r.standard_normal(d),
        )
        for _ in range(n)
    ]


def appended(rows, d, names=None):
    """The append_row oracle."""
    ch = CompactChain(d, variable_names=names)
    for row in rows:
        ch.append_row(row)
    return ch


def assert_same_chain(a, b):
    assert a.variable_names == b.variable_names
    assert (a.n_rows, a.verbose_length) == (b.n_rows, b.verbose_length)
    for name in ROW_COLUMNS + ("verbose_starts",):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


class TestColumnsAndSlices:
    @pytest.mark.parametrize("n", [0, 1, 7, 1500])
    def test_from_columns_matches_append_row(self, n):
        rows = random_rows(n, n, 3)
        want = appended(rows, 3, names=("a", "b", "c"))
        got = CompactChain.from_columns(
            ("a", "b", "c"), *(getattr(want, c) for c in ROW_COLUMNS)
        )
        assert_same_chain(got, want)

    def test_from_columns_then_append_matches_append_row(self):
        # the appends fill the spare rows, then grow the arrays at 1024
        rows = random_rows(2, 1100, 2)
        got = CompactChain.from_columns(
            ("Var1", "Var2"),
            *(getattr(appended(rows[:1000], 2), c) for c in ROW_COLUMNS),
        )
        for row in rows[1000:]:
            got.append_row(row)
        got.increment_last(4)
        want = appended(rows, 2)
        want.increment_last(4)
        assert_same_chain(got, want)

    def test_from_columns_copies_its_input(self):
        source = appended(random_rows(3, 10, 2), 2)
        columns = [getattr(source, c).copy() for c in ROW_COLUMNS]
        got = CompactChain.from_columns(source.variable_names, *columns)
        for column in columns:
            column[...] = 1
        assert_same_chain(got, source)

    def test_from_columns_rejects_bad_shapes_and_weights(self):
        source = appended(random_rows(4, 5, 2), 2)
        columns = [getattr(source, c) for c in ROW_COLUMNS]
        with pytest.raises(DimensionMismatch):
            CompactChain.from_columns(("x",), *columns)
        short = list(columns)
        short[0] = short[0][:4]
        with pytest.raises(DimensionMismatch):
            CompactChain.from_columns(source.variable_names, *short)
        zero = list(columns)
        zero[5] = np.array([1, 2, 0, 1, 1])
        with pytest.raises(ValueError):
            CompactChain.from_columns(source.variable_names, *zero)

    @pytest.mark.parametrize("start,count", [
        (0, 0), (0, 40), (13, 20), (39, 1), (40, 0),
    ])
    def test_slice_matches_append_row(self, start, count):
        rows = random_rows(5, 40, 2)
        assert_same_chain(
            appended(rows, 2).slice(start, count),
            appended(rows[start:start + count], 2),
        )

    @pytest.mark.parametrize("start,count", [(-1, 2), (0, -1), (30, 11)])
    def test_slice_out_of_range(self, start, count):
        with pytest.raises(IndexError):
            appended(random_rows(6, 40, 2), 2).slice(start, count)

    @pytest.mark.parametrize("start", [0, 13, 40])
    def test_tail_matches_append_row(self, start):
        rows = random_rows(9, 40, 2)
        assert_same_chain(appended(rows, 2).tail(start),
                          appended(rows[start:], 2))

    @pytest.mark.parametrize("start", [-1, 41])
    def test_tail_out_of_range(self, start):
        with pytest.raises(IndexError):
            appended(random_rows(10, 40, 2), 2).tail(start)

    def test_tail_owns_its_arrays_and_has_room_to_grow(self):
        # the chain a multichain resume steps is the tail of the chain read
        # from the file: its appends fill spare rows, then grow the arrays
        rows = random_rows(12, 1200, 2)
        source = appended(rows[:1000], 2)
        part = source.tail(900)
        assert part._weight.size == 1024
        for row in rows[1000:]:
            part.append_row(row)
        part.increment_last(3)
        part.restamp_last(0.125, 77)
        want = appended(rows[900:], 2)
        want.increment_last(3)
        want.restamp_last(0.125, 77)
        assert_same_chain(part, want)
        assert_same_chain(source, appended(rows[:1000], 2))

    @pytest.mark.parametrize("n", [0, 1, 500, 1023, 1024, 2500])
    def test_read_chain_has_the_capacity_appending_leaves(self, n):
        # a resume appends the live row to a chain of n rows read from the
        # file; it then has the capacity of a chain that appended n + 1
        # rows, and grows where that one grows. A slice, which holds a
        # completed chain, keeps room for one row only.
        rows = random_rows(11, n + 1, 2)
        oracle = appended(rows, 2)
        columns = [getattr(appended(rows[:n], 2), c) for c in ROW_COLUMNS]
        rebuilt = CompactChain.from_columns(("Var1", "Var2"), *columns)
        assert rebuilt._weight.size == oracle._weight.size
        assert oracle.slice(1, n)._weight.size == n + 1

    def test_slice_owns_its_arrays(self):
        rows = random_rows(7, 30, 2)
        source = appended(rows, 2)
        part = source.slice(10, 10)
        part.increment_last(5)
        part.restamp_last(0.125, 77)
        part.append_row(random_rows(8, 1, 2)[0])
        part.states[0] += 1.0
        assert_same_chain(source, appended(rows, 2))
