"""Compact weighted chain storage.

A Markov chain that rejects often repeats states; storing each visited state
once with a repeat count ("weight") shrinks memory and disk by the mean
rejection run length. The expansion back to the full realization is the
verbose chain. Rows also carry per-row bookkeeping columns that the output
files report: contributing process, delayed-rejection stage, running
acceptance rate, adaptation measure, running burn-in location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, EmptyRange

__all__ = [
    "ChainRow",
    "CompactChain",
    "WeightedMoments",
    "to_verbose",
]

_INITIAL_CAPACITY = 1024

# CompactChain's per-row columns, in ChainRow's field order
_ROW_COLUMNS = (
    "_process_id",
    "_dr_stage",
    "_mean_acceptance_rate",
    "_adaptation_measure",
    "_burnin_location",
    "_weight",
    "_log_func",
)


@dataclass(eq=False)
class ChainRow:
    """One unique visited state plus its bookkeeping columns."""

    process_id: int
    dr_stage: int
    mean_acceptance_rate: float
    adaptation_measure: float
    burnin_location: int
    weight: int
    log_func: float
    state: np.ndarray


class CompactChain:
    """Growable column store for chain rows.

    Columns live in numpy arrays preallocated to ``capacity`` rows that
    double on demand; the kernel appends one row per accepted state and
    adds 1 to the last row's weight on every rejection, so both must be
    cheap. The live (last) row's weight is the verbose length past its
    start, so a rejection only adds to the plain attribute
    ``verbose_length``; the weight column is settled when it is read and
    when the next row is appended. Single writer by contract.
    """

    def __init__(
        self,
        dimension: int,
        variable_names: Optional[Sequence[str]] = None,
        capacity: int = _INITIAL_CAPACITY,
    ):
        if dimension < 1:
            raise DimensionMismatch("dimension must be >= 1, got %d" % dimension)
        if variable_names is None:
            variable_names = tuple("Var%d" % (i + 1) for i in range(dimension))
        else:
            variable_names = tuple(str(v) for v in variable_names)
            if len(variable_names) != dimension:
                raise DimensionMismatch(
                    "%d variable names for dimension %d"
                    % (len(variable_names), dimension)
                )
        self.dimension = dimension
        self.variable_names = variable_names
        # rows past n are never read, so the arrays are left unzeroed
        cap = capacity
        self._process_id = np.empty(cap, dtype=np.int64)
        self._dr_stage = np.empty(cap, dtype=np.int64)
        self._mean_acceptance_rate = np.empty(cap, dtype=np.float64)
        self._adaptation_measure = np.empty(cap, dtype=np.float64)
        self._burnin_location = np.empty(cap, dtype=np.int64)
        self._weight = np.empty(cap, dtype=np.int64)
        self._log_func = np.empty(cap, dtype=np.float64)
        self._verbose_start = np.empty(cap, dtype=np.int64)
        self._states = np.empty((cap, dimension), dtype=np.float64)
        self.n_rows = 0
        self.verbose_length = 0

    def _settle(self) -> None:
        # the live row's weight from the verbose length
        n = self.n_rows
        if n:
            self._weight[n - 1] = self.verbose_length - self._verbose_start[n - 1]

    # read-only column views over the filled prefix
    @property
    def weights(self) -> np.ndarray:
        self._settle()
        return self._weight[: self.n_rows]

    log_funcs = property(lambda self: self._log_func[: self.n_rows])
    states = property(lambda self: self._states[: self.n_rows])
    process_ids = property(lambda self: self._process_id[: self.n_rows])
    dr_stages = property(lambda self: self._dr_stage[: self.n_rows])
    mean_acceptance_rates = property(
        lambda self: self._mean_acceptance_rate[: self.n_rows])
    adaptation_measures = property(
        lambda self: self._adaptation_measure[: self.n_rows])
    burnin_locations = property(lambda self: self._burnin_location[: self.n_rows])
    verbose_starts = property(lambda self: self._verbose_start[: self.n_rows])

    @classmethod
    def from_columns(
        cls,
        variable_names: Sequence[str],
        process_ids,
        dr_stages,
        mean_acceptance_rates,
        adaptation_measures,
        burnin_locations,
        weights,
        log_funcs,
        states,
    ) -> "CompactChain":
        """A chain holding copies of the given columns, in ChainRow's field
        order; ``states`` is (n, d). The verbose starts are the running sum
        of the weights. The capacity is what appending n + 1 rows leaves
        (1024, doubled as needed), so a resumed chain, once its live row is
        appended, grows at the rows where an uninterrupted one grows."""
        columns = (process_ids, dr_stages, mean_acceptance_rates,
                   adaptation_measures, burnin_locations, weights, log_funcs)
        return cls._filled(variable_names, columns, states, room=True)

    def slice(self, start: int, count: int) -> "CompactChain":
        """Rows [start, start + count) as a new chain that owns its arrays,
        with room for one more row only."""
        return self._rows(start, start + count, room=False)

    def tail(self, start: int) -> "CompactChain":
        """Rows [start, n) as a new chain, with from_columns's room."""
        return self._rows(start, self.n_rows, room=True)

    def _rows(self, start: int, end: int, room: bool) -> "CompactChain":
        return self._filled(self.variable_names, *self.columns(start, end), room)

    def columns(self, start: int, end: int) -> Tuple[list, np.ndarray]:
        """Rows [start, end) as views: the seven fixed columns in ChainRow's
        field order, and the (end - start, d) states."""
        if start < 0 or end < start or end > self.n_rows:
            raise IndexError(
                "rows [%d, %d) out of range [0, %d)" % (start, end, self.n_rows)
            )
        self._settle()
        return ([getattr(self, name)[start:end] for name in _ROW_COLUMNS],
                self._states[start:end])

    @classmethod
    def _filled(cls, variable_names, columns, states, room: bool):
        states = np.asarray(states, dtype=np.float64)
        if states.ndim != 2:
            raise DimensionMismatch(
                "states must be (n, d), got shape %r" % (states.shape,)
            )
        n, dimension = states.shape
        capacity = _INITIAL_CAPACITY if room else n + 1
        while capacity < n + 1:
            capacity *= 2
        chain = cls(dimension, variable_names, capacity=capacity)
        for name, values in zip(_ROW_COLUMNS, columns):
            values = np.asarray(values)
            if values.shape != (n,):
                raise DimensionMismatch(
                    "column %s has shape %r for %d states"
                    % (name[1:], values.shape, n)
                )
            getattr(chain, name)[:n] = values
        w = chain._weight[:n]
        if n and w.min() < 1:
            raise ValueError("weight must be >= 1, got %d" % w.min())
        chain._states[:n] = states
        chain._verbose_start[:1] = 0
        np.cumsum(w[:-1], out=chain._verbose_start[1:n])
        chain.n_rows = n
        chain.verbose_length = int(w.sum())
        return chain

    def _grow(self):
        cap = self._process_id.size * 2
        for name in _ROW_COLUMNS + ("_verbose_start",):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self.n_rows] = old[: self.n_rows]
            setattr(self, name, new)
        states = np.empty((cap, self.dimension), dtype=np.float64)
        states[: self.n_rows] = self._states[: self.n_rows]
        self._states = states

    def append_row(self, row: ChainRow) -> None:
        state = np.asarray(row.state, dtype=float)
        if state.shape != (self.dimension,):
            raise DimensionMismatch(
                "state has shape %r, chain dimension is %d"
                % (state.shape, self.dimension)
            )
        if row.weight < 1:
            raise ValueError("weight must be >= 1, got %d" % row.weight)
        self.append(row.process_id, row.dr_stage, row.mean_acceptance_rate,
                    row.adaptation_measure, row.burnin_location, row.weight,
                    row.log_func, state)

    def append(self, process_id, dr_stage, mean_acceptance_rate,
               adaptation_measure, burnin_location, weight, log_func,
               state) -> None:
        """Append one row from its values, unchecked (append_row checks)."""
        i = self.n_rows
        if i == self._process_id.size:
            self._grow()
        self._settle()  # the live row's weight is final
        self._process_id[i] = process_id
        self._dr_stage[i] = dr_stage
        self._mean_acceptance_rate[i] = mean_acceptance_rate
        self._adaptation_measure[i] = adaptation_measure
        self._burnin_location[i] = burnin_location
        self._weight[i] = weight
        self._log_func[i] = log_func
        self._verbose_start[i] = self.verbose_length
        self._states[i] = state
        self.n_rows = i + 1
        self.verbose_length += weight

    def increment_last(self, extra_weight: int = 1) -> None:
        if self.n_rows == 0:
            raise EmptyRange("cannot increment an empty chain")
        self.verbose_length += extra_weight

    def restamp_last(
        self, mean_acceptance_rate: float, burnin_location: int
    ) -> None:
        """Refresh the running columns of the live (last) row."""
        if self.n_rows == 0:
            raise EmptyRange("cannot restamp an empty chain")
        self._mean_acceptance_rate[self.n_rows - 1] = mean_acceptance_rate
        self._burnin_location[self.n_rows - 1] = burnin_location

    def last_state(self) -> np.ndarray:
        if self.n_rows == 0:
            raise EmptyRange("empty chain has no last state")
        return self._states[self.n_rows - 1]

    def fields(self, i: int) -> tuple:
        """Row i as a chain file lays it out: the seven columns in ChainRow's
        field order, then the state's coordinates, all as Python numbers."""
        if not 0 <= i < self.n_rows:
            raise IndexError("row %d out of range [0, %d)" % (i, self.n_rows))
        self._settle()
        return (
            self._process_id.item(i),
            self._dr_stage.item(i),
            self._mean_acceptance_rate.item(i),
            self._adaptation_measure.item(i),
            self._burnin_location.item(i),
            self._weight.item(i),
            self._log_func.item(i),
            *self._states[i].tolist(),
        )

    def row(self, i: int) -> ChainRow:
        values = self.fields(i)
        return ChainRow(*values[:7], state=np.array(values[7:]))


def to_verbose(chain: CompactChain) -> Tuple[np.ndarray, np.ndarray]:
    """Expand to the full Markov realization.

    Returns (log_funcs, states) with each row repeated ``weight`` times in
    order; total length is the verbose length.
    """
    w = chain.weights
    return np.repeat(chain.log_funcs, w), np.repeat(chain.states, w, axis=0)


class WeightedMoments:
    """Weighted mean and covariance, merged one block of points at a time.

    A block's own moments join the running ones by the pairwise update of
    Chan, Golub & LeVeque (1983). Merging the same sequence of blocks
    reproduces bit-identical values, which the restart contract relies on.
    Covariance is population-normalized.
    """

    __slots__ = ("dimension", "total_weight", "mean", "m2")

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.total_weight = 0.0
        self.mean = np.zeros(dimension)
        self.m2 = np.zeros((dimension, dimension))

    def update(self, points: np.ndarray, weights: np.ndarray) -> None:
        """Merge a non-empty block: ``points`` (n, d), ``weights`` (n,)."""
        weights = np.asarray(weights, dtype=float)
        block_weight = float(weights.sum())
        block_mean = (weights @ points) / block_weight
        centered = points - block_mean
        total = self.total_weight + block_weight
        delta = block_mean - self.mean
        self.m2 = (
            self.m2
            + (centered.T * weights) @ centered
            + (self.total_weight * block_weight / total) * np.outer(delta, delta)
        )
        self.mean = self.mean + (block_weight / total) * delta
        self.total_weight = total

    def covariance(self) -> np.ndarray:
        if self.total_weight <= 0.0:
            raise EmptyRange("no observations accumulated")
        return self.m2 / self.total_weight
