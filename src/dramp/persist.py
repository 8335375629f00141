"""Output file suite: chain, sample, report, progress, restart.

Chain files come in an ASCII and a binary codec that decode to identical
values; reals are rendered with 17 significant digits in ASCII, which
round-trips IEEE doubles exactly. All text files are written in binary mode
with LF line endings so that byte-identical reruns stay byte-identical across
platforms.

The restart file is a checksummed binary envelope around an exact state
payload (floats as hex strings), written atomically; a crash can only ever
leave the previous snapshot in place, never a corrupt one. The payload
(format version 3) holds file offsets and O(d) kernel values, never what
the rows determine (the proposal, the adaptation count, each row's chain);
detect_incomplete hands its caller the payload it checked.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .chain import CompactChain
from .errors import CorruptRestart, IoFailure, UnencodableValue
from .refine import RefinedSample

__all__ = [
    "RunState",
    "OutputSuite",
    "ChainWriter",
    "read_chain",
    "write_sample",
    "ProgressWriter",
    "write_report",
    "read_report_echo",
    "write_snapshot",
    "read_snapshot",
    "detect_incomplete",
    "CHAIN_MAGIC",
    "RESTART_MAGIC",
    "REPORT_TERMINATOR",
    "ECHO_BEGIN",
    "ECHO_END",
    "FORMAT_COMMENT",
]

CHAIN_MAGIC = b"DRMPCHN1"
RESTART_MAGIC = b"DRMPRST1"
FORMAT_COMMENT = "# format: v1"
REPORT_TERMINATOR = "# end of report: run complete"
ECHO_BEGIN = "# --- begin specification echo ---"
ECHO_END = "# --- end specification echo ---"

FIXED_COLUMNS = (
    "ProcessID",
    "DelayedRejectionStage",
    "MeanAcceptanceRate",
    "AdaptationMeasure",
    "BurninLocation",
    "SampleWeight",
    "SampleLogFunc",
)


class RunState(Enum):
    FRESH = "fresh"
    RESTARTABLE = "restartable"
    COMPLETE = "complete"


@dataclass(frozen=True)
class OutputSuite:
    """Filesystem layout of one simulation's outputs."""

    prefix: str
    chain_format: str = "ascii"
    delimiter: str = ","

    def __post_init__(self):
        if not self.prefix:
            raise ValueError("output prefix must be non-empty")
        if self.chain_format not in ("ascii", "binary"):
            raise ValueError(
                "chain_format must be 'ascii' or 'binary', got %r"
                % self.chain_format
            )
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")

    @property
    def chain_path(self) -> str:
        ext = "txt" if self.chain_format == "ascii" else "bin"
        return "%s_chain.%s" % (self.prefix, ext)

    @property
    def sample_path(self) -> str:
        return "%s_sample.txt" % self.prefix

    @property
    def report_path(self) -> str:
        return "%s_report.txt" % self.prefix

    @property
    def progress_path(self) -> str:
        return "%s_progress.txt" % self.prefix

    @property
    def restart_path(self) -> str:
        return "%s_restart.bin" % self.prefix

    def all_paths(self) -> Tuple[str, ...]:
        return (
            self.chain_path,
            self.sample_path,
            self.report_path,
            self.progress_path,
            self.restart_path,
        )


def _fmt(value: float) -> str:
    # 17 significant digits: lossless for IEEE doubles
    return "%.17g" % value


class _OutputFile:
    """An output file opened in binary mode, so tell() is a true byte
    offset; restart truncation depends on it."""

    def __init__(self, path: str, append: bool, what: str):
        try:
            self._fh = open(path, "ab" if append else "wb")
        except OSError as exc:
            raise IoFailure("cannot open %s file: %s" % (what, exc)) from exc

    def flush(self) -> None:
        self._fh.flush()

    def tell(self) -> int:
        return self._fh.tell()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class ChainWriter(_OutputFile):
    """Streaming chain-file writer for either codec: write_rows writes a
    range of a chain's rows from its columns, write_row one row's fields."""

    def __init__(self, suite: OutputSuite, variable_names: Sequence[str],
                 append: bool = False):
        super().__init__(suite.chain_path, append, "chain")
        self.suite = suite
        self.variable_names = tuple(variable_names)
        self._record = _record_dtype(len(self.variable_names))
        # the format of one ASCII row: integers as %d, reals as _fmt renders
        self._line = (suite.delimiter.replace("%", "%%").join(
            "%d %d %.17g %.17g %d %d %.17g".split()
            + ["%.17g"] * len(self.variable_names)
        ) + "\n").encode("utf-8")
        self._ascii = suite.chain_format == "ascii"
        if not append:
            self._write_header()

    def _write_header(self) -> None:
        if self.suite.chain_format == "ascii":
            header = self.suite.delimiter.join(
                FIXED_COLUMNS + self.variable_names
            )
            self._fh.write(
                (FORMAT_COMMENT + "\n" + header + "\n").encode("utf-8")
            )
        else:
            names = "\x00".join(self.variable_names).encode("utf-8")
            self._fh.write(CHAIN_MAGIC)
            self._fh.write(
                struct.pack("<III", 1, len(self.variable_names), len(names))
            )
            self._fh.write(names)

    def write_row(self, fields: tuple) -> None:
        """Write one row: a tuple in ``CompactChain.fields``'s layout, the
        seven fixed columns and then the state's coordinates. It is encoded
        as a one-row block, whose row an encoding error names as row 0."""
        fixed = [np.asarray([v]) for v in fields[:7]]
        self._write_block(fixed, np.asarray([fields[7:]], dtype=float), 0)

    def write_rows(self, chain: CompactChain, start: int, end: int) -> None:
        """Write rows [start, end) of ``chain`` from its columns, the bytes
        write_row writes for each row's fields."""
        for first in range(start, end, _BLOCK_ROWS):
            last = min(first + _BLOCK_ROWS, end)
            self._write_block(*chain.columns(first, last), first)

    def _write_block(self, fixed, states: np.ndarray, first: int) -> None:
        """Write a block, its seven fixed columns and its states, from row
        ``first``: ASCII as lines of the one-row format, binary as one array
        of records. Casting would wrap an integer its binary field cannot
        hold, so that raises UnencodableValue naming its column and row."""
        if self._ascii:
            columns = [column.tolist() for column in fixed] + states.T.tolist()
            data = b"".join([self._line % row for row in zip(*columns)])
        else:
            data = np.empty(len(states), self._record)
            for name, column, values in zip(self._record.names, FIXED_COLUMNS, fixed):
                field = self._record[name]
                if field.kind == "u":
                    bad = np.flatnonzero((values < 0) | (values > np.iinfo(field).max))
                    if bad.size:
                        raise UnencodableValue(
                            "chain row %d: %s %d does not fit the binary field %s"
                            % (first + bad[0], column, values[bad[0]], field.str))
                data[name] = values
            data["state"] = states
        try:
            self._fh.write(data)
        except OSError as exc:
            raise IoFailure("chain write failed: %s" % exc) from exc


# How the ASCII codec parses each fixed column, and the array type both
# codecs decode it into
_INT, _REAL = (int, np.int64), (float, np.float64)
_FIELD_TYPES = (_INT, _INT, _REAL, _REAL, _INT, _INT, _REAL)
_WEIGHT = FIXED_COLUMNS.index("SampleWeight")
_INT64_MAX = np.iinfo(np.int64).max
# Rows are encoded, and ASCII lines split into fields, a block at a time,
# because the Python objects per row dominate the memory: on `serial-dr2`,
# 512-line read blocks raised peak RSS by 1.1 MB, 256-line blocks (with the
# text freed) by 0.4 MB
_BLOCK_ROWS = 256


def _record_dtype(dimension: int) -> np.dtype:
    """The binary record, packed: struct format "<IIddQQd" + "d" * d."""
    return np.dtype([
        ("process_id", "<u4"),
        ("dr_stage", "<u4"),
        ("mean_acceptance_rate", "<f8"),
        ("adaptation_measure", "<f8"),
        ("burnin_location", "<u8"),
        ("weight", "<u8"),
        ("log_func", "<f8"),
        ("state", "<f8", (dimension,)),
    ])


def _check_rows(start: int, weights: np.ndarray, total: int,
                failure: Optional[Tuple[int, str]] = None) -> int:
    """The row rule both codecs end in, for a block of rows from row
    ``start``. ``weights`` holds the block's weights up to ``failure``, the
    (row in block, reason) of the first row the codec could not decode into
    int64 and float64 columns, if any. A weight below 1, or a running
    verbose length past int64, also damages a row. Raises IoFailure naming
    the first damaged row; otherwise returns the verbose length ``total``
    of the rows before the block plus the block's."""
    damage = [] if failure is None else [failure]
    low = np.flatnonzero(weights < 1)
    if low.size:
        damage.append(
            (int(low[0]), "SampleWeight %d is below 1" % weights[low[0]])
        )
    # every weight is below 2**63, so the first running sum past int64 wraps
    # to a negative one
    running = np.cumsum(np.concatenate(([total], weights)))
    wrapped = np.flatnonzero(running[1:] < 0)
    if wrapped.size:
        damage.append((int(wrapped[0]), "verbose length passes int64"))
    if damage:
        row, reason = min(damage, key=lambda d: d[0])
        raise IoFailure("damaged chain row %d: %s" % (start + row, reason))
    return int(running[-1])


def _ascii_block(fields: List[List[str]], n_fields: int):
    """A block of split lines as its seven fixed columns and its states.
    A wrong field count or a field its column's parser rejects raises
    ValueError, an integer past int64 OverflowError."""
    if any(len(f) != n_fields for f in fields):
        raise ValueError("wrong field count")
    n = len(fields)
    columns = list(zip(*fields)) or [()] * n_fields
    fixed = [
        np.fromiter(map(parse, column), dtype, n)
        for (parse, dtype), column in zip(_FIELD_TYPES, columns)
    ]
    states = np.empty((n, n_fields - len(FIXED_COLUMNS)))
    for j, column in enumerate(columns[len(FIXED_COLUMNS):]):
        states[:, j] = np.fromiter(map(float, column), np.float64, n)
    return fixed, states


def _first_undecodable(fields: List[List[str]],
                       header: Sequence[str]) -> Tuple[int, str]:
    """(row in block, reason) of the first line of a block that
    _ascii_block rejects: the first wrong field count, or the first field
    of each column that does not parse, whichever row comes first."""
    n_fields = len(header)
    short = next(
        (i for i, f in enumerate(fields) if len(f) != n_fields), len(fields)
    )
    failures = []
    if short < len(fields):
        failures.append(
            (short, "%d fields, expected %d" % (len(fields[short]), n_fields))
        )
    types = _FIELD_TYPES + (_REAL,) * (n_fields - len(_FIELD_TYPES))
    for (parse, dtype), name, column in zip(types, header, zip(*fields[:short])):
        for i, value in enumerate(column):
            try:
                dtype(parse(value))
            except ValueError as exc:
                failures.append((i, "%s: %s" % (name, exc)))
                break
            except OverflowError:
                failures.append((i, "%s %s does not fit int64" % (name, value)))
                break
    return min(failures, key=lambda f: f[0])


def _read_chain_ascii(raw: bytes, delimiter: str) -> CompactChain:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IoFailure("chain file is not text: %s" % exc) from exc
    body = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    del text  # body holds copies of the lines; this lowers the peak memory
    if not body:
        raise IoFailure("chain file has no header line")
    header = body[0].split(delimiter)
    if tuple(header[: len(FIXED_COLUMNS)]) != FIXED_COLUMNS:
        raise IoFailure(
            "unexpected chain header %r" % body[0][:120]
        )
    names = header[len(FIXED_COLUMNS):]
    if not names:
        raise IoFailure("chain header declares no variables")
    rows = body[1:]
    fixed = [np.empty(len(rows), dtype) for _, dtype in _FIELD_TYPES]
    states = np.empty((len(rows), len(names)))
    total = 0
    for start in range(0, len(rows), _BLOCK_ROWS):
        fields = [ln.split(delimiter) for ln in rows[start: start + _BLOCK_ROWS]]
        failure = None
        try:
            block, block_states = _ascii_block(fields, len(header))
        except (ValueError, OverflowError):
            failure = _first_undecodable(fields, header)
            block, block_states = _ascii_block(fields[: failure[0]], len(header))
        total = _check_rows(start, block[_WEIGHT], total, failure)
        end = start + len(fields)
        for column, values in zip(fixed, block):
            column[start:end] = values
        states[start:end] = block_states
    return CompactChain.from_columns(names, *fixed, states)


def _read_chain_binary(raw: bytes) -> CompactChain:
    head = struct.calcsize("<III")
    if len(raw) < len(CHAIN_MAGIC) + head:
        raise IoFailure("binary chain file truncated before header")
    offset = len(CHAIN_MAGIC)
    version, dimension, name_len = struct.unpack_from("<III", raw, offset)
    if version != 1:
        raise IoFailure("unsupported binary chain version %d" % version)
    offset += head
    if len(raw) < offset + name_len:
        raise IoFailure("binary chain file truncated in name block")
    try:
        names = raw[offset: offset + name_len].decode("utf-8").split("\x00")
    except UnicodeDecodeError as exc:
        raise IoFailure("binary chain name block is not text: %s" % exc) from exc
    if len(names) != dimension:
        raise IoFailure(
            "name block holds %d names for dimension %d" % (len(names), dimension)
        )
    offset += name_len
    record = _record_dtype(dimension)
    n_body = len(raw) - offset
    if n_body % record.itemsize != 0:
        raise IoFailure(
            "binary chain body length %d is not a multiple of record size %d"
            % (n_body, record.itemsize)
        )
    rec = np.frombuffer(raw, record, n_body // record.itemsize, offset)
    failure = None
    for field, name in (("burnin_location", "BurninLocation"),
                        ("weight", "SampleWeight")):
        wide = np.flatnonzero(rec[field] > np.uint64(_INT64_MAX))
        if wide.size and (failure is None or wide[0] < failure[0]):
            failure = (
                int(wide[0]),
                "%s %d does not fit int64" % (name, rec[field][wide[0]]),
            )
    decoded = rec if failure is None else rec[: failure[0]]
    _check_rows(0, decoded["weight"].astype(np.int64), 0, failure)
    return CompactChain.from_columns(
        names, *(rec[field] for field in record.names)
    )


def read_chain(
    path: str, delimiter: str = ",", size: Optional[int] = None
) -> CompactChain:
    """Load a chain file in either codec (sniffed by magic bytes), or only
    its first ``size`` bytes.

    Both codecs read columns, not rows: the binary body is one array of
    packed records, and ASCII lines are split in blocks of a few hundred and
    parsed one column at a time by ``int()`` and ``float()``. A row that does
    not decode is damaged: a wrong field count, a field that does not parse,
    a weight below 1, a weight or burn-in past int64, or a running verbose
    length past int64. The first damaged row raises IoFailure naming its
    index.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read(-1 if size is None else size)
    except OSError as exc:
        raise IoFailure("cannot read chain file: %s" % exc) from exc
    if raw.startswith(CHAIN_MAGIC):
        return _read_chain_binary(raw)
    return _read_chain_ascii(raw, delimiter)


def write_sample(path: str, refined: RefinedSample, delimiter: str = ",") -> None:
    names = tuple("Var%d" % (i + 1) for i in range(refined.dimension))
    try:
        with open(path, "wb") as fh:
            fh.write((FORMAT_COMMENT + "\n").encode("utf-8"))
            fh.write(
                (delimiter.join(("SampleLogFunc",) + names) + "\n").encode("utf-8")
            )
            for logf, point in zip(refined.log_funcs, refined.points):
                fields = [_fmt(float(logf))] + [_fmt(float(v)) for v in point]
                fh.write((delimiter.join(fields) + "\n").encode("utf-8"))
    except OSError as exc:
        raise IoFailure("cannot write sample file: %s" % exc) from exc


class ProgressWriter(_OutputFile):
    """Appends one CSV line per progress tick (every 1000 verbose states)."""

    HEADER = (
        "VerboseLength,CompactLength,MeanAcceptanceRate,"
        "LastAdaptationMeasure,ElapsedSeconds"
    )

    def __init__(self, path: str, append: bool = False):
        super().__init__(path, append, "progress")
        if not append:
            self._fh.write(
                (FORMAT_COMMENT + "\n" + self.HEADER + "\n").encode("utf-8")
            )

    def write_tick(self, tick: dict, elapsed_seconds: Optional[float]) -> None:
        elapsed = "" if elapsed_seconds is None else "%.3f" % elapsed_seconds
        line = "%d,%d,%s,%s,%s\n" % (
            tick["verbose_length"],
            tick["compact_length"],
            _fmt(tick["mean_acceptance_rate"]),
            _fmt(tick["last_adaptation_measure"]),
            elapsed,
        )
        try:
            self._fh.write(line.encode("utf-8"))
            self._fh.flush()
        except OSError as exc:
            raise IoFailure("progress write failed: %s" % exc) from exc


def _windowed_means(values: np.ndarray, n_windows: int = 10) -> List[float]:
    if values.size == 0:
        return []
    n_windows = min(n_windows, values.size)
    splits = np.array_split(values, n_windows)
    return [float(np.mean(s)) for s in splits]


def write_report(
    suite: OutputSuite,
    echo: Sequence[Tuple[str, str, str]],
    summary,
    refinement: Optional[RefinedSample],
    speedup,
    mode: str,
    check=None,
    tally=None,
    complete: bool = True,
) -> None:
    """Write the human-readable report.

    ``echo`` carries (key, value, description) triples rendered between fixed
    sentinel lines in the flat key=value config format, so a report can be
    re-parsed to reproduce the exact simulation that produced it. ``complete``
    controls the terminator line that marks a finished run.
    """
    bar = "=" * 72
    lines: List[str] = [FORMAT_COMMENT, bar, "ADAPTIVE MCMC SIMULATION REPORT", bar, ""]
    lines.append("SPECIFICATION")
    lines.append("")
    lines.append(ECHO_BEGIN)
    for key, value, description in echo:
        lines.append("# %s" % description)
        lines.append("%s = %s" % (key, value))
    lines.append(ECHO_END)
    lines.append("")

    chain = summary.chain
    lines.append("ACCEPTANCE STATISTICS")
    lines.append("")
    lines.append("  unique states            : %d" % chain.n_rows)
    lines.append("  verbose (Markov) length  : %d" % chain.verbose_length)
    lines.append(
        "  mean acceptance rate     : %s" % _fmt(summary.mean_acceptance_rate)
    )
    lines.append(
        "  compression factor       : %s"
        % _fmt(chain.verbose_length / chain.n_rows)
    )
    for stage, (att, acc) in enumerate(
        zip(summary.stage_attempts, summary.stage_accepts)
    ):
        rate = acc / att if att else 0.0
        lines.append(
            "  stage %d: attempts %d, accepts %d, rate %s"
            % (stage, att, acc, _fmt(rate))
        )
    lines.append("")

    lines.append("ADAPTATION")
    lines.append("")
    lines.append("  adaptations performed    : %d" % summary.adaptation_count)
    measures = chain.adaptation_measures
    nonzero = measures[measures > 0.0]
    if nonzero.size:
        lines.append("  first measure            : %s" % _fmt(float(nonzero[0])))
        lines.append("  last measure             : %s" % _fmt(float(nonzero[-1])))
        means = _windowed_means(nonzero)
        lines.append(
            "  windowed means           : %s"
            % ", ".join(_fmt(v) for v in means)
        )
    lines.append("")

    lines.append("BURN-IN")
    lines.append("")
    lines.append("  verbose burn-in location : %d" % summary.burnin_location)
    lines.append("")

    lines.append("REFINEMENT")
    lines.append("")
    if refinement is None:
        lines.append("  not performed")
    else:
        lines.append(
            "  source verbose length    : %d" % refinement.source_verbose_length
        )
        lines.append("  refined sample size      : %d" % refinement.points.shape[0])
        for i, rnd in enumerate(refinement.rounds):
            lines.append(
                "  round %d: phase %d, aggregate IAC %s, kept %d"
                % (i + 1, rnd.phase, _fmt(rnd.iac_aggregate), rnd.kept_count)
            )
    lines.append("")

    if check is not None:
        lines.append("CONVERGENCE CHECK")
        lines.append("")
        lines.append(
            "  pairwise KS tests at alpha %s (Bonferroni %s)"
            % (_fmt(check.alpha), _fmt(check.corrected_alpha))
        )
        for (i, j, dim, stat, p) in check.entries:
            lines.append(
                "  chains %d vs %d, dim %d: D %s, p %s"
                % (i, j, dim, _fmt(stat), _fmt(p))
            )
        lines.append(
            "  verdict                  : %s"
            % ("no evidence of non-convergence" if check.all_pass else "FAILED")
        )
        lines.append("")

    if tally is not None:
        lines.append("WORKER CONTRIBUTIONS")
        lines.append("")
        for rank, count in enumerate(tally.counts, start=1):
            lines.append("  rank %4d: %d" % (rank, count))
        lines.append("")

    lines.append("SPEEDUP")
    lines.append("")
    lines.append("  mode                     : %s" % mode)
    lines.append(
        "  fitted acceptance prob   : %s" % _fmt(speedup.fitted_acceptance_prob)
    )
    lines.append("  predicted speedup table  :")
    for workers, value in speedup.predicted_curve:
        lines.append("    P %6d -> %s" % (workers, _fmt(value)))
    lines.append(
        "  recommended worker count : %d" % speedup.recommended_workers
    )
    if speedup.observed_speedup is not None:
        lines.append(
            "  observed speedup         : %s" % _fmt(speedup.observed_speedup)
        )
    lines.append("")
    lines.append(bar)
    if complete:
        lines.append(REPORT_TERMINATOR)
    try:
        with open(suite.report_path, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
    except OSError as exc:
        raise IoFailure("cannot write report: %s" % exc) from exc


def read_report_echo(path: str) -> List[Tuple[str, str]]:
    """Recover the key=value specification echo from a report file."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise IoFailure("cannot read report: %s" % exc) from exc
    items: List[Tuple[str, str]] = []
    inside = False
    for line in text.split("\n"):
        if line == ECHO_BEGIN:
            inside = True
            continue
        if line == ECHO_END:
            inside = False
            continue
        if inside and line and not line.startswith("#"):
            key, _, value = line.partition("=")
            items.append((key.strip(), value.strip()))
    return items


# --- exact state transport -------------------------------------------------

def _encode_exact(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return {"__float__": obj.hex()}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return {"__float__": float(obj).hex()}
    if isinstance(obj, np.ndarray):
        return {
            "__array__": list(obj.shape),
            "data": [float(v).hex() for v in obj.ravel().tolist()],
        }
    if isinstance(obj, dict):
        return {str(k): _encode_exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_exact(v) for v in obj]
    raise TypeError("cannot snapshot value of type %s" % type(obj).__name__)


def _decode_exact(obj):
    if isinstance(obj, dict):
        if "__float__" in obj and len(obj) == 1:
            return float.fromhex(obj["__float__"])
        if "__array__" in obj:
            flat = np.array(
                [float.fromhex(v) for v in obj["data"]], dtype=float
            )
            return flat.reshape(obj["__array__"])
        return {k: _decode_exact(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode_exact(v) for v in obj]
    return obj


def write_snapshot(path: str, payload: dict) -> None:
    """Atomically persist a restart snapshot (write-new then rename)."""
    body = json.dumps(_encode_exact(payload), sort_keys=True).encode("utf-8")
    blob = (
        RESTART_MAGIC
        + struct.pack("<II", 1, len(body))
        + body
        + hashlib.sha256(body).digest()
    )
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure("cannot write restart snapshot: %s" % exc) from exc


def read_snapshot(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CorruptRestart("cannot read restart snapshot: %s" % exc) from exc
    head = len(RESTART_MAGIC) + struct.calcsize("<II")
    if len(raw) < head or not raw.startswith(RESTART_MAGIC):
        raise CorruptRestart("restart file lacks the snapshot magic")
    version, body_len = struct.unpack_from("<II", raw, len(RESTART_MAGIC))
    if version != 1:
        raise CorruptRestart("unsupported snapshot version %d" % version)
    if len(raw) != head + body_len + 32:
        raise CorruptRestart("snapshot length mismatch")
    body = raw[head: head + body_len]
    digest = raw[head + body_len:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptRestart("snapshot checksum mismatch")
    return _decode_exact(json.loads(body.decode("utf-8")))


def _chain_holds_rows(path: str) -> bool:
    """Whether a chain file holds any byte past its header; a header cut
    short holds none."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(CHAIN_MAGIC) + 12)
            if head.startswith(CHAIN_MAGIC) and len(head) == len(CHAIN_MAGIC) + 12:
                name_len = struct.unpack_from("<III", head, len(CHAIN_MAGIC))[2]
                return os.fstat(fh.fileno()).st_size > len(head) + name_len
            fh.seek(0)
            for line in fh:
                if not line.startswith(b"#"):
                    return bool(fh.read(1))  # anything after the header line
            return False
    except OSError as exc:
        raise CorruptRestart("cannot read chain file: %s" % exc) from exc


def detect_incomplete(prefix: str) -> Tuple[RunState, Optional[dict]]:
    """Classify what a previous run left behind under this prefix.

    Complete: report present and properly terminated. Restartable: chain plus
    a checksum-valid restart snapshot without a terminated report. Fresh: no
    suite files, or only what a run stopped before its first snapshot leaves
    (chain files holding no row and a progress file). Anything else is
    reported as corrupt rather than silently treated as fresh. Returns the
    state and, if restartable, the decoded snapshot, else None.
    """
    report = "%s_report.txt" % prefix
    if os.path.exists(report):
        try:
            with open(report, "rb") as fh:
                text = fh.read().decode("utf-8", errors="replace")
        except OSError as exc:
            raise CorruptRestart("cannot read report: %s" % exc) from exc
        tail = [ln for ln in text.split("\n") if ln.strip()]
        if tail and tail[-1] == REPORT_TERMINATOR:
            return RunState.COMPLETE, None
    chain_candidates = [
        "%s_chain.txt" % prefix,
        "%s_chain.bin" % prefix,
    ]
    restart = "%s_restart.bin" % prefix
    chain_exists = any(os.path.exists(p) for p in chain_candidates)
    if chain_exists and os.path.exists(restart):
        # raises CorruptRestart on damage
        return RunState.RESTARTABLE, read_snapshot(restart)
    started = any(
        os.path.exists(p) for p in (report, restart, "%s_sample.txt" % prefix)
    ) or any(_chain_holds_rows(p) for p in chain_candidates if os.path.exists(p))
    if started:
        raise CorruptRestart(
            "output files under prefix %r are neither complete nor resumable"
            % prefix
        )
    return RunState.FRESH, None
