"""Compact weighted chain storage.

A Markov chain that rejects often repeats states; storing each visited state
once with a repeat count ("weight") shrinks memory and disk by the mean
rejection run length. The expansion back to the full realization is the
verbose chain. Rows also carry bookkeeping columns: contributing process,
delayed-rejection stage, running acceptance rate, adaptation measure,
running burn-in location. COLUMNS is the one list of a row's seven fixed
columns; the chain store and both chain codecs in ``persist`` read it. A
chain holds numbers only: the variable names live in the chain file's
header, which ``persist`` writes and checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DimensionMismatch, EmptyRange

__all__ = [
    "COLUMNS",
    "ROW_DTYPE",
    "ChainRow",
    "CompactChain",
    "WeightedMoments",
]

_INITIAL_CAPACITY = 1024

# The seven fixed columns of a chain row, in file order: the field name (of
# ChainRow, of CompactChain's columns and of the binary record), the chain
# file's header, and the binary record's field type
COLUMNS = (
    ("process_id", "ProcessID", "<u4"),
    ("dr_stage", "DelayedRejectionStage", "<u4"),
    ("mean_acceptance_rate", "MeanAcceptanceRate", "<f8"),
    ("adaptation_measure", "AdaptationMeasure", "<f8"),
    ("burnin_location", "BurninLocation", "<u8"),
    ("weight", "SampleWeight", "<u8"),
    ("log_func", "SampleLogFunc", "<f8"),
)

# A row's types in memory: an integer column as int64, a real one as
# float64, then the row's first index in the verbose chain
ROW_DTYPE = np.dtype(
    [(name, np.int64 if binary[1] == "u" else np.float64)
     for name, _, binary in COLUMNS]
    + [("verbose_start", np.int64)]
)


@dataclass(eq=False)
class ChainRow:
    """One unique visited state plus its bookkeeping columns, in COLUMNS's
    order."""

    process_id: int
    dr_stage: int
    mean_acceptance_rate: float
    adaptation_measure: float
    burnin_location: int
    weight: int
    log_func: float
    state: np.ndarray


# A staged row's Python values, in this order, then its state: every field
# of ROW_DTYPE but the weight, the difference of two verbose starts
_STAGED = tuple(name for name in ROW_DTYPE.names if name != "weight")


def _column(name: str) -> property:
    """The read-only view of column ``name`` over the filled prefix."""
    def read(self) -> np.ndarray:
        self._settle()
        return self._columns[name][: self.n_rows]
    return property(read)


class CompactChain:
    """Growable column store for chain rows: an array per field of
    ROW_DTYPE (``_weight`` and so on, by name in ``_columns``) and an
    (n, d) array of states, not one record array, whose fresh pages and
    strided writes slowed a resume's decode.

    The kernel appends one row per accepted state and adds 1 to the last
    row's weight on every rejection, so both must be cheap. An appended row
    is staged, as a list of its Python values (_STAGED's, then its state),
    and restamp_last edits the live row's list in place. _settle lands the
    staged rows with one slice assignment per column, into arrays
    preallocated to ``capacity`` rows that double on demand; every read of
    a column, a row or a range settles first. The live (last) row's weight
    is the verbose length past its start, so a rejection only adds to the
    plain attribute ``verbose_length``; each other row's weight is the next
    row's start less its own. Single writer by contract.
    """

    def __init__(self, dimension: int, capacity: int = _INITIAL_CAPACITY):
        if dimension < 1:
            raise DimensionMismatch("dimension must be >= 1, got %d" % dimension)
        self.dimension = dimension
        # rows past n are never read, so the arrays are left unzeroed
        self._bind({name: np.empty(capacity, ROW_DTYPE[name])
                    for name in ROW_DTYPE.names},
                   np.empty((capacity, dimension), dtype=np.float64))
        self._staged = []  # appended rows not yet landed, oldest first
        self.n_rows = 0
        self.verbose_length = 0

    def _bind(self, columns: dict, states: np.ndarray) -> None:
        self._columns, self._states = columns, states
        for name, column in columns.items():
            setattr(self, "_" + name, column)

    def _settle(self) -> None:
        """Land the staged rows, then set the live row's weight from the
        verbose length."""
        n, staged = self.n_rows, self._staged
        if staged:
            first = n - len(staged)
            while self._weight.size < n:
                self._grow(first)
            values = list(zip(*staged))
            for name, column in zip(_STAGED, values):
                self._columns[name][first:n] = column
            self._states[first:n] = values[-1]
            staged.clear()
            # the weights the landed starts finalize: the row before the
            # first staged one's, and every staged one's but the last
            low = max(first - 1, 0)
            self._weight[low:n - 1] = np.diff(self._verbose_start[low:n])
        if n:
            self._weight[n - 1] = self.verbose_length - self._verbose_start[n - 1]

    # read-only column views over the filled prefix
    weights = _column("weight")
    log_funcs = _column("log_func")
    process_ids = _column("process_id")
    dr_stages = _column("dr_stage")
    mean_acceptance_rates = _column("mean_acceptance_rate")
    adaptation_measures = _column("adaptation_measure")
    burnin_locations = _column("burnin_location")
    verbose_starts = _column("verbose_start")

    @property
    def states(self) -> np.ndarray:
        self._settle()
        return self._states[: self.n_rows]

    @classmethod
    def from_columns(cls, records, states) -> "CompactChain":
        """A chain holding copies of the given rows: ``records`` maps each
        field of COLUMNS to its n values (a record array or a dict of
        arrays, such as ``columns`` returns), ``states`` is (n, d). The
        verbose starts are the running sum of the weights. The capacity is
        what appending n + 1 rows leaves (1024, doubled as needed), so a
        resumed chain, once its live row is appended, grows at the rows
        where an uninterrupted one grows."""
        return cls._filled(records, states, room=True)

    def slice(self, start: int, count: int) -> "CompactChain":
        """Rows [start, start + count) as a new chain that owns its arrays,
        with room for one more row only."""
        return self._filled(*self.columns(start, start + count), room=False)

    def tail(self, start: int) -> "CompactChain":
        """Rows [start, n) as a new chain, with from_columns's room."""
        return self.from_columns(*self.columns(start, self.n_rows))

    def columns(self, start: int, end: int) -> Tuple[dict, np.ndarray]:
        """Rows [start, end) as views: each field of ROW_DTYPE by name, and
        the (end - start, d) states."""
        if start < 0 or end < start or end > self.n_rows:
            raise IndexError(
                "rows [%d, %d) out of range [0, %d)" % (start, end, self.n_rows)
            )
        self._settle()
        return ({name: column[start:end] for name, column in self._columns.items()},
                self._states[start:end])

    @classmethod
    def _filled(cls, records, states, room: bool):
        states = np.asarray(states, dtype=np.float64)
        if states.ndim != 2:
            raise DimensionMismatch(
                "states must be (n, d), got shape %r" % (states.shape,)
            )
        n, dimension = states.shape
        capacity = _INITIAL_CAPACITY if room else n + 1
        while capacity < n + 1:
            capacity *= 2
        chain = cls(dimension, capacity)
        for name, _, _ in COLUMNS:
            values = records[name]
            if np.shape(values) != (n,):
                raise DimensionMismatch("column %s has shape %r for %d states"
                                        % (name, np.shape(values), n))
            chain._columns[name][:n] = values
        w = chain._weight[:n]
        if n and w.min() < 1:
            raise ValueError("weight must be >= 1, got %d" % w.min())
        chain._states[:n] = states
        chain._verbose_start[:1] = 0
        np.cumsum(w[:-1], out=chain._verbose_start[1:n])
        chain.n_rows = n
        chain.verbose_length = int(w.sum())
        return chain

    def _grow(self, kept: int) -> None:
        """Double the capacity, keeping the first ``kept`` rows."""
        cap = self._weight.size * 2
        columns = {}
        for name, old in self._columns.items():
            columns[name] = np.empty(cap, old.dtype)
            columns[name][:kept] = old[:kept]
        states = np.empty((cap, self.dimension), dtype=np.float64)
        states[:kept] = self._states[:kept]
        self._bind(columns, states)

    def append_row(self, row: ChainRow) -> None:
        state = np.array(row.state, dtype=float)  # the chain keeps a copy
        if state.shape != (self.dimension,):
            raise DimensionMismatch(
                "state has shape %r, chain dimension is %d"
                % (state.shape, self.dimension)
            )
        if row.weight < 1:
            raise ValueError("weight must be >= 1, got %d" % row.weight)
        self.append(*(getattr(row, name) for name, _, _ in COLUMNS), state)

    def append(self, process_id, dr_stage, mean_acceptance_rate,
               adaptation_measure, burnin_location, weight, log_func,
               state) -> None:
        """Stage one row from its values, unchecked (append_row checks).
        The chain keeps ``state`` itself, which the caller must not change."""
        self._staged.append([process_id, dr_stage, mean_acceptance_rate,
                             adaptation_measure, burnin_location, log_func,
                             self.verbose_length, state])
        self.n_rows += 1
        self.verbose_length += weight

    def restamp_last(
        self, mean_acceptance_rate: float, burnin_location: int
    ) -> int:
        """Refresh the running columns of the live (last) row; return its
        settled weight."""
        i = self.n_rows - 1
        if i < 0:
            raise EmptyRange("cannot restamp an empty chain")
        if self._staged:
            live = self._staged[-1]  # indexed in _STAGED's order
            live[2], live[4] = mean_acceptance_rate, burnin_location
            return self.verbose_length - live[6]
        self._mean_acceptance_rate[i] = mean_acceptance_rate
        self._burnin_location[i] = burnin_location
        return self.verbose_length - self._verbose_start.item(i)

    def last_state(self) -> np.ndarray:
        if self.n_rows == 0:
            raise EmptyRange("empty chain has no last state")
        self._settle()
        return self._states[self.n_rows - 1]

    def fields(self, i: int) -> tuple:
        """Row i as a chain file lays it out: the seven columns in COLUMNS's
        order, then the state's coordinates, all as Python numbers."""
        if not 0 <= i < self.n_rows:
            raise IndexError("row %d out of range [0, %d)" % (i, self.n_rows))
        self._settle()
        return (*(self._columns[name].item(i) for name, _, _ in COLUMNS),
                *self._states[i].tolist())

    def row(self, i: int) -> ChainRow:
        values = self.fields(i)
        return ChainRow(*values[:7], state=np.array(values[7:]))


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
