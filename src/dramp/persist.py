"""Output file suite: chain, sample, report, progress, restart.

Chain files come in an ASCII and a binary codec that decode to identical
values; both take a row's header, field types and line format from
``chain.COLUMNS``. Reals are rendered with 17 significant digits in ASCII,
which round-trips IEEE doubles exactly. All text files are written in binary
mode with LF line endings so that byte-identical reruns stay byte-identical
across platforms. The delimiter is one character that no number holds and
the report's echo keeps: not whitespace, a letter, a digit, '+', '-' or '.'.

The restart file is a log of snapshots, each a checksummed binary record
around a plain JSON payload (a float as its shortest repr, which reads back
to the same double). A snapshot is appended, and replaces the log whole
once it holds SNAPSHOT_LOG_LIMIT bytes; a crash can leave the earlier
records and a torn last one, which a resume cuts, never a changed complete
record. The last complete record is the snapshot. Its payload (format
version 5) holds file offsets and O(d) kernel values, never what the rows
determine (the proposal, the adaptation count, each row's chain);
detect_incomplete hands its caller the payload it checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .chain import COLUMNS, ROW_DTYPE, CompactChain
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
    "write_snapshot",
    "read_snapshot",
    "Snapshot",
    "detect_incomplete",
    "chain_prefix",
    "CHAIN_MAGIC",
    "RESTART_MAGIC",
    "SNAPSHOT_LOG_LIMIT",
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
# A binary chain file's header: the magic, its version, the dimension and the
# length of the name block that follows
_CHAIN_HEAD = struct.Struct("<8sIII")
# A restart log record's header: the magic, its version and its body length
_RECORD_HEAD = struct.Struct("<8sII")
_HEAD = _RECORD_HEAD.size
# The restart log's size from which the next snapshot replaces it whole
SNAPSHOT_LOG_LIMIT = 16 * 1024

FIXED_COLUMNS = tuple(header for _, header, _ in COLUMNS)


# The chain file's extension for each codec
CHAIN_EXTENSIONS = {"ascii": "txt", "binary": "bin"}


class RunState(Enum):
    FRESH = "fresh"
    RESTARTABLE = "restartable"
    COMPLETE = "complete"


@dataclass(frozen=True)
class OutputSuite:
    """Filesystem layout of one simulation's outputs. A refused field is
    named by its specification key: out, format or delimiter."""

    prefix: str
    chain_format: str = "ascii"
    delimiter: str = ","

    def __post_init__(self):
        if not self.prefix:
            raise ValueError("out: the output prefix must be non-empty")
        if self.chain_format not in CHAIN_EXTENSIONS:
            raise ValueError("format: %r is not one of %s" % (
                self.chain_format, ", ".join(CHAIN_EXTENSIONS)))
        # the chain reader splits latin-1 text, a number's own characters
        # would split its field, and the report's echo strips whitespace
        d = self.delimiter
        if len(d) != 1 or not d.isascii() or d.isspace() or d.isalnum() or d in "+-.":
            raise ValueError(
                "delimiter: must be one ASCII character other than whitespace, "
                "a letter, a digit, '+', '-' or '.', got %r" % d
            )

    @property
    def chain_path(self) -> str:
        return "%s_chain.%s" % (self.prefix, CHAIN_EXTENSIONS[self.chain_format])

    @property
    def chain_paths(self) -> Tuple[str, ...]:
        """Each codec's chain path; a run wrote at most one of them."""
        return tuple(replace(self, chain_format=c).chain_path for c in CHAIN_EXTENSIONS)

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
    offset; restart truncation depends on it. It is the one place a suite
    file is opened, written, flushed, closed or renamed: an OSError from
    any of those raises IoFailure naming the operation and the path. A
    close on the way out of a failed ``with`` block does not replace its
    error."""

    def __init__(self, path: str, append: bool = False, header: bytes = b""):
        """Open ``path``, and write ``header`` first unless appending; a
        failing header write closes the file again."""
        self.path = path
        self._fh = self._do("open", open, path, "ab" if append else "wb")
        if header and not append:
            with contextlib.ExitStack() as opened:
                opened.enter_context(self)
                self.write(header)
                opened.pop_all()

    def _do(self, operation: str, call, *args):
        try:
            return call(*args)
        except OSError as exc:
            raise IoFailure("cannot %s %s: %s" % (operation, self.path, exc)) from exc

    def write(self, data) -> None:
        self._do("write", self._fh.write, data)

    def flush(self) -> None:
        self._do("flush", self._fh.flush)

    def tell(self) -> int:
        return self._fh.tell()

    def close(self) -> None:
        self._do("close", self._fh.close)

    def rename(self, path: str) -> None:
        """Rename the closed file to ``path``, replacing that file."""
        self._do("rename", os.replace, self.path, path)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        try:
            self.close()
        except IoFailure:
            if exc_type is None:
                raise
        return False


class ChainWriter(_OutputFile):
    """Streaming chain-file writer for either codec: write_rows writes a
    range of a chain's rows from its columns, write_row one row's fields."""

    def __init__(self, suite: OutputSuite, variable_names: Sequence[str],
                 append: bool = False):
        self.suite = suite
        self.variable_names = tuple(variable_names)
        self._record = _record_dtype(len(self.variable_names))
        # the format of one ASCII row: integers as %d, reals as _fmt renders
        self._line = (suite.delimiter.replace("%", "%%").join(
            ["%d" if parse is int else "%.17g" for parse, _ in _FIELD_TYPES]
            + ["%.17g"] * len(self.variable_names)
        ) + "\n").encode("utf-8")
        self._ascii = suite.chain_format == "ascii"
        super().__init__(suite.chain_path, append, self._header())

    def _header(self) -> bytes:
        if self._ascii:
            header = self.suite.delimiter.join(FIXED_COLUMNS + self.variable_names)
            return (FORMAT_COMMENT + "\n" + header + "\n").encode("utf-8")
        names = "\x00".join(self.variable_names).encode("utf-8")
        return _CHAIN_HEAD.pack(
            CHAIN_MAGIC, 1, len(self.variable_names), len(names)) + names

    def write_row(self, fields: tuple) -> None:
        """Write one row: a tuple in ``CompactChain.fields``'s layout, the
        seven fixed columns and then the state's coordinates. It is encoded
        as a one-row block, whose row an encoding error names as row 0."""
        records = {name: np.asarray([v]) for (name, _, _), v in zip(COLUMNS, fields)}
        self._write_block(records, np.asarray([fields[7:]], dtype=float), 0)

    def write_rows(self, chain: CompactChain, start: int, end: int) -> None:
        """Write rows [start, end) of ``chain`` from its columns, the bytes
        write_row writes for each row's fields."""
        for first in range(start, end, _BLOCK_ROWS):
            last = min(first + _BLOCK_ROWS, end)
            self._write_block(*chain.columns(first, last), first)

    def _write_block(self, records, states: np.ndarray, first: int) -> None:
        """Write a block, its records (anything that maps each field of
        COLUMNS to its values) and its states, from row ``first``: ASCII as
        lines of the one-row format, binary as one array of records.
        Casting would wrap an integer its binary field cannot hold, so that
        raises UnencodableValue naming its column and row."""
        if self._ascii:
            columns = [records[name].tolist() for name, _, _ in COLUMNS]
            data = b"".join([self._line % row
                             for row in zip(*columns, *states.T.tolist())])
        else:
            data = np.empty(len(states), self._record)
            for name, column, _ in COLUMNS:
                values, field = records[name], self._record[name]
                if field.kind == "u":
                    bad = np.flatnonzero((values < 0) | (values > np.iinfo(field).max))
                    if bad.size:
                        raise UnencodableValue(
                            "chain row %d: %s %d does not fit the binary field %s"
                            % (first + bad[0], column, values[bad[0]], field.str))
                data[name] = values
            data["state"] = states
        self.write(data)


# How Python parses each fixed column, and the array type both codecs
# decode it into
_FIELD_TYPES = tuple(
    (int if ROW_DTYPE[name].kind == "i" else float, ROW_DTYPE[name].type)
    for name, _, _ in COLUMNS
)
_INT64_MAX = np.iinfo(np.int64).max
# Rows are encoded a block at a time, because the Python objects per row
# dominate the memory of a write
_BLOCK_ROWS = 256


def _record_dtype(dimension: int, ascii: bool = False) -> np.dtype:
    """A row as one record: COLUMNS's fields, then the state as d doubles.
    The binary record is packed, of COLUMNS's binary fields; the ASCII
    decode's holds each field in its ROW_DTYPE type."""
    return np.dtype([(name, ROW_DTYPE[name] if ascii else binary)
                     for name, _, binary in COLUMNS]
                    + [("state", "<f8", (dimension,))])


def _check_rows(weights: np.ndarray,
                failure: Optional[Tuple[int, str]] = None) -> None:
    """The row rule both codecs end in. ``weights`` holds the file's
    weights up to ``failure``, the (row, reason) of the first row the codec
    could not decode into int64 and float64 columns, if any. A weight below
    1, or a running verbose length past int64, also damages a row. Raises
    IoFailure naming the first damaged row."""
    damage = [] if failure is None else [failure]
    low = np.flatnonzero(weights < 1)
    if low.size:
        damage.append(
            (int(low[0]), "SampleWeight %d is below 1" % weights[low[0]])
        )
    # every weight is below 2**63, so the first running sum past int64 wraps
    # to a negative one
    wrapped = np.flatnonzero(np.cumsum(weights) < 0)
    if wrapped.size:
        damage.append((int(wrapped[0]), "verbose length passes int64"))
    if damage:
        row, reason = min(damage, key=lambda d: d[0])
        raise IoFailure("damaged chain row %d: %s" % (row, reason))


def _decode_lines(fh, record: np.dtype, delimiter: str) -> np.ndarray:
    """The lines left in the binary file ``fh`` as records, by numpy's C
    text reader, skipping empty lines; a line it cannot decode raises
    ValueError. Latin-1 reads a byte as a character in half UTF-8's time,
    and no number holds a non-ASCII byte."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(fh, record, delimiter=delimiter, comments=None,
                          quotechar=None, ndmin=1, encoding="latin-1")


def _decoded(fh, count: int, record: np.dtype, delimiter: str) -> Optional[np.ndarray]:
    """_decode_lines of ``fh`` if it gives ``count`` records, else None."""
    try:
        rec = _decode_lines(fh, record, delimiter)
    except ValueError:
        return None
    return rec if len(rec) == count else None


def _first_damaged(rows: List[bytes], header: Sequence[str], record: np.dtype,
                   delimiter: str) -> Optional[Tuple[int, str]]:
    """(row, reason) of the first of ``rows`` that _decode_lines does not
    decode to one record, or None. The reason is a wrong field count, or
    names the first field that does not parse into its column's type: by
    Python's ``int()`` or ``float()`` message where they refuse it, else as
    ``cannot parse`` and the field's UTF-8 text where numpy's reader does
    or the field holds a CR, which ends the reader's line. Else it is
    numpy's reason for the line."""
    types = _FIELD_TYPES + ((float, np.float64),) * (len(header) - len(_FIELD_TYPES))
    for i, line in enumerate(rows):
        try:
            if len(_decode_lines(io.BytesIO(line), record, delimiter)) == 1:
                continue
            reason = "not one row"
        except ValueError as exc:
            reason = str(exc)
        cells = line.split(delimiter.encode("utf-8"))
        if len(cells) != len(header):
            return i, "%d fields, expected %d" % (len(cells), len(header))
        for (parse, dtype), name, cell in zip(types, header, cells):
            value = cell.decode("utf-8", "replace")
            try:
                dtype(parse(value))
            except ValueError as exc:
                return i, "%s: %s" % (name, exc)
            except OverflowError:
                return i, "%s %s does not fit int64" % (name, value)
            if b"\r" in cell or _decoded(io.BytesIO(cell), 1, np.dtype(dtype),
                                          delimiter) is None:
                return i, "%s: cannot parse %r" % (name, value)
        return i, reason
    return None


def _read_chain_ascii(raw: bytes, delimiter: str) -> CompactChain:
    fh = io.BytesIO(raw)
    # the header is the first line that is neither empty nor a comment
    line = next((ln for ln in fh if ln != b"\n" and not ln.startswith(b"#")), None)
    if line is None:
        raise IoFailure("chain file has no header line")
    try:
        line = line.rstrip(b"\n").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IoFailure("chain file is not text: %s" % exc) from exc
    header = line.split(delimiter)
    if tuple(header[: len(FIXED_COLUMNS)]) != FIXED_COLUMNS:
        raise IoFailure("unexpected chain header %r" % line[:120])
    names = header[len(FIXED_COLUMNS):]
    if not names:
        raise IoFailure("chain header declares no variables")
    record = _record_dtype(len(names), ascii=True)
    start, failure = fh.tell(), None
    lines = raw.count(b"\n", start) + (raw[-1:] != b"\n")
    try:
        rec = _decode_lines(fh, record, delimiter)
    except ValueError:
        rec = None
    if rec is None or len(rec) != lines:
        # a damaged row, or a line the reader skips (an empty line, a lone
        # CR) or refuses (a comment): the rows are the lines neither empty
        # nor a comment. A call that skipped only empty lines decoded them
        # all; else they are decoded in one more call, and line by line up
        # to the first damaged one only when that call fails too
        rows = [ln for ln in raw[start:].split(b"\n") if ln and not ln.startswith(b"#")]
        if rec is None or len(rec) != len(rows):
            rec = _decoded(io.BytesIO(b"\n".join(rows)), len(rows), record, delimiter)
    if rec is None:
        failure = _first_damaged(rows, header, record, delimiter)
        kept = rows if failure is None else rows[: failure[0]]
        rec = _decode_lines(io.BytesIO(b"\n".join(kept)), record, delimiter)
    _check_rows(rec["weight"], failure)
    return CompactChain.from_columns(rec, rec["state"])


def _read_chain_binary(raw: bytes) -> CompactChain:
    if len(raw) < _CHAIN_HEAD.size:
        raise IoFailure("binary chain file truncated before header")
    _, version, dimension, name_len = _CHAIN_HEAD.unpack_from(raw)
    if version != 1:
        raise IoFailure("unsupported binary chain version %d" % version)
    offset = _CHAIN_HEAD.size
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
    for field, name, binary in COLUMNS:
        if binary != "<u8":
            continue  # a narrower field fits int64
        wide = np.flatnonzero(rec[field] > np.uint64(_INT64_MAX))
        if wide.size and (failure is None or wide[0] < failure[0]):
            failure = (
                int(wide[0]),
                "%s %d does not fit int64" % (name, rec[field][wide[0]]),
            )
    decoded = rec if failure is None else rec[: failure[0]]
    _check_rows(decoded["weight"].astype(np.int64), failure)
    return CompactChain.from_columns(rec, rec["state"])


def read_chain(
    path: str, delimiter: str = ",", size: Optional[int] = None
) -> CompactChain:
    """Load a chain file in either codec (sniffed by magic bytes), or only
    its first ``size`` bytes.

    Both codecs read records, not rows one at a time: the binary body is
    one array of packed records, and the ASCII body after the header line is
    decoded by one ``np.loadtxt`` call over the read bytes, into a record of
    the ROW_DTYPE fields and the state. Empty lines and, as before, comment
    lines are no rows. A row that does not decode is damaged: a wrong field
    count, a field that numpy's reader does not parse, a weight below 1, a
    weight or burn-in past int64, or a running verbose length past int64.
    The first damaged row raises IoFailure naming its index; for ASCII it is
    found line by line only when the one call fails.
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
    with _OutputFile(path) as fh:
        fh.write((FORMAT_COMMENT + "\n").encode("utf-8"))
        fh.write(
            (delimiter.join(("SampleLogFunc",) + names) + "\n").encode("utf-8")
        )
        for logf, point in zip(refined.log_funcs, refined.points):
            fields = [_fmt(float(logf))] + [_fmt(float(v)) for v in point]
            fh.write((delimiter.join(fields) + "\n").encode("utf-8"))


class ProgressWriter(_OutputFile):
    """Appends one CSV line per progress tick (every 1000 verbose states)."""

    HEADER = (
        "VerboseLength,CompactLength,MeanAcceptanceRate,"
        "LastAdaptationMeasure,ElapsedSeconds"
    )

    def __init__(self, path: str, append: bool = False):
        super().__init__(path, append,
                         (FORMAT_COMMENT + "\n" + self.HEADER + "\n").encode("utf-8"))

    def write_tick(self, tick: dict, elapsed_seconds: Optional[float]) -> None:
        elapsed = "" if elapsed_seconds is None else "%.3f" % elapsed_seconds
        line = "%d,%d,%s,%s,%s\n" % (
            tick["verbose_length"],
            tick["compact_length"],
            _fmt(tick["mean_acceptance_rate"]),
            _fmt(tick["last_adaptation_measure"]),
            elapsed,
        )
        self.write(line.encode("utf-8"))
        self.flush()


def write_report(
    suite: OutputSuite,
    echo: Sequence[Tuple[str, str, str]],
    summary,
    refinement: Optional[RefinedSample],
    speedup,
    mode: str,
    check=None,
    tally=None,
) -> None:
    """Write the human-readable report.

    ``echo`` carries (key, value, description) triples rendered between fixed
    sentinel lines in the flat key=value config format, so
    config.parse_config_file reads a report as the config file of the exact
    simulation that produced it. The last line is the terminator that marks
    a finished run.
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
        windows = np.array_split(nonzero, min(10, nonzero.size))
        lines.append(
            "  windowed means           : %s"
            % ", ".join(_fmt(float(np.mean(w))) for w in windows)
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
    lines.append(REPORT_TERMINATOR)
    with _OutputFile(suite.report_path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def write_snapshot(path: str, payload: dict) -> None:
    """Append a restart snapshot to the log at ``path`` as one record of
    plain JSON; a value JSON cannot hold, such as an ndarray, raises
    TypeError. A log that already holds SNAPSHOT_LOG_LIMIT bytes is replaced
    by the record instead (write-new then rename), so the log's bytes follow
    from the sequence of snapshots alone. An append needs no rename: a crash
    leaves the earlier records in place and at worst a torn last record."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    blob = (_RECORD_HEAD.pack(RESTART_MAGIC, 1, len(body)) + body
            + hashlib.sha256(body).digest())
    with _OutputFile(path, append=True) as fh:
        if fh.tell() < SNAPSHOT_LOG_LIMIT:
            fh.write(blob)
            return
    with _OutputFile(path + ".tmp") as tmp:
        tmp.write(blob)
    tmp.rename(path)


class Snapshot(dict):
    """A restart payload, and ``end``: the offset in its log where its record
    ends, at which a resume cuts a torn tail."""

    end = 0


def _last_record(raw: bytes, size: int) -> Tuple[int, int]:
    """(start, end) of the last complete record of a restart log of ``size``
    bytes, of which ``raw`` holds the first, at least up to that record's
    header; (0, 0) when no record is complete. The walk reads only headers
    and stops at a torn tail, a record that the log ends inside. A header
    that is not the snapshot magic and version raises CorruptRestart."""
    start = end = 0
    while end + _HEAD <= len(raw):
        magic, version, body_len = _RECORD_HEAD.unpack_from(raw, end)
        if magic != RESTART_MAGIC:
            break
        if version != 1:
            raise CorruptRestart("unsupported snapshot version %d" % version)
        if end + _HEAD + body_len + 32 > size:
            return start, end
        start, end = end, end + _HEAD + body_len + 32
    if not RESTART_MAGIC.startswith(raw[end: end + len(RESTART_MAGIC)]):
        raise CorruptRestart("restart record at byte %d lacks the snapshot magic"
                             % end)
    return start, end


def read_snapshot(path: str) -> Snapshot:
    """The last complete record of the restart log at ``path``. Only that
    record is hashed and decoded; the others' headers are walked. A torn
    tail after it is ignored, and a log that holds no complete record
    raises CorruptRestart."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CorruptRestart("cannot read restart snapshot: %s" % exc) from exc
    start, end = _last_record(raw, len(raw))
    if not end:
        raise CorruptRestart("restart file holds no complete snapshot")
    body = raw[start + _HEAD: end - 32]
    if hashlib.sha256(body).digest() != raw[end - 32: end]:
        raise CorruptRestart("snapshot checksum mismatch")
    snap = Snapshot(json.loads(body.decode("utf-8")))
    snap.end = end
    return snap


def _holds_snapshot(path: str) -> bool:
    """Whether a restart log exists and is more than a torn first record,
    which is all a run stopped in its first snapshot leaves."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEAD)
            size = os.fstat(fh.fileno()).st_size
    except FileNotFoundError:
        return False
    except OSError as exc:
        raise CorruptRestart("cannot read restart snapshot: %s" % exc) from exc
    try:
        return _last_record(head, size)[1] > 0
    except CorruptRestart:
        return True  # damage, which read_snapshot names


def _chain_holds_rows(path: str) -> bool:
    """Whether a chain file holds any byte past its header; a header cut
    short holds none."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_CHAIN_HEAD.size)
            if head.startswith(CHAIN_MAGIC) and len(head) == _CHAIN_HEAD.size:
                name_len = _CHAIN_HEAD.unpack(head)[3]
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
    a restart log whose last complete record is checksum-valid, without a
    terminated report. Fresh: no suite files, or only what a run stopped
    before its first snapshot landed leaves (chain files holding no row, a
    progress file and a log holding one torn record). Anything else is
    reported as corrupt rather than silently treated as fresh. Returns the
    state and, if restartable, the decoded snapshot, else None.
    """
    suite = OutputSuite(prefix)
    report, restart = suite.report_path, suite.restart_path
    if os.path.exists(report):
        try:
            with open(report, "rb") as fh:
                text = fh.read().decode("utf-8", errors="replace")
        except OSError as exc:
            raise CorruptRestart("cannot read report: %s" % exc) from exc
        tail = [ln for ln in text.split("\n") if ln.strip()]
        if tail and tail[-1] == REPORT_TERMINATOR:
            return RunState.COMPLETE, None
    chains = [p for p in suite.chain_paths if os.path.exists(p)]
    if chains and os.path.exists(restart):
        try:
            return RunState.RESTARTABLE, read_snapshot(restart)
        except CorruptRestart:
            if _holds_snapshot(restart):
                raise  # damage, not one torn record
    started = any(
        os.path.exists(p) for p in (report, suite.sample_path)
    ) or _holds_snapshot(restart) or any(_chain_holds_rows(p) for p in chains)
    if started:
        raise CorruptRestart(
            "output files under prefix %r are neither complete nor resumable"
            % prefix
        )
    return RunState.FRESH, None


def chain_prefix(path: str) -> Optional[str]:
    """The prefix of the suite whose chain file ``path`` names, or None."""
    stem = path.rpartition("_chain.")[0]
    return stem if stem and path in OutputSuite(stem).chain_paths else None
