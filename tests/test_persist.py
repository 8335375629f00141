"""File formats: chain codecs, sample and progress files, the report with its
re-parseable specification echo, and the checksummed restart snapshot.

Both chain codecs must round-trip every IEEE double bit for bit; the ASCII
side leans on 17-significant-digit formatting, the binary side on fixed-width
little-endian records. A handful of frozen byte-level expectations pin the
formats so a refactor cannot silently change them.
"""

import json
import math
import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dramp import persist
from dramp.chain import ROW_DTYPE, ChainRow, CompactChain
from dramp.config import parse_config_file
from dramp.errors import CorruptRestart, IoFailure, UnencodableValue
from dramp.kernel import KernelConfig, run_kernel
from dramp.model import TargetDensity
from dramp.parallel import build_speedup_report
from dramp.persist import (
    CHAIN_MAGIC,
    ECHO_BEGIN,
    ECHO_END,
    FIXED_COLUMNS,
    FORMAT_COMMENT,
    REPORT_TERMINATOR,
    RESTART_MAGIC,
    ChainWriter,
    OutputSuite,
    ProgressWriter,
    RunState,
    detect_incomplete,
    read_chain,
    read_snapshot,
    write_report,
    write_sample,
    write_snapshot,
)
from dramp.proposal import ProposalState
from dramp.refine import RefinedSample


def mk_row(state, logf, weight=1, pid=1, stage=0, rate=0.5, measure=0.0, burnin=0):
    return ChainRow(
        process_id=pid,
        dr_stage=stage,
        mean_acceptance_rate=rate,
        adaptation_measure=measure,
        burnin_location=burnin,
        weight=weight,
        log_func=float(logf),
        state=np.asarray(state, dtype=float),
    )


def row_fields(row):
    """A ChainRow laid out as ChainWriter.write_row takes it."""
    return (row.process_id, row.dr_stage, row.mean_acceptance_rate,
            row.adaptation_measure, row.burnin_location, row.weight,
            row.log_func, *np.asarray(row.state, dtype=float).tolist())


def random_chain(seed, n=60, d=3):
    r = np.random.default_rng(seed)
    ch = CompactChain(d)
    for k in range(n):
        ch.append_row(
            mk_row(
                r.standard_normal(d) * 10.0 ** r.integers(-4, 5),
                r.standard_normal() * 100,
                weight=int(r.integers(1, 9)),
                pid=int(r.integers(0, 5)),
                stage=int(r.integers(0, 3)),
                rate=float(r.random()),
                measure=float(r.random()),
                burnin=int(r.integers(0, 50)),
            )
        )
    return ch


def cut_last_line(path):
    """Drop the file's last line, as a run killed before its end would."""
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: data.rstrip(b"\n").rfind(b"\n") + 1])


def write_chain(suite, chain, names):
    with ChainWriter(suite, names) as w:
        for i in range(chain.n_rows):
            w.write_row(chain.fields(i))


def assert_chains_bitwise(a, b):
    assert a.n_rows == b.n_rows
    assert a.states.tobytes() == b.states.tobytes()
    assert a.log_funcs.tobytes() == b.log_funcs.tobytes()
    assert a.mean_acceptance_rates.tobytes() == b.mean_acceptance_rates.tobytes()
    assert a.adaptation_measures.tobytes() == b.adaptation_measures.tobytes()
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.process_ids, b.process_ids)
    assert np.array_equal(a.dr_stages, b.dr_stages)
    assert np.array_equal(a.burnin_locations, b.burnin_locations)


class TestOutputSuite:
    def test_path_layout(self, tmp_path):
        s = OutputSuite(str(tmp_path / "run"))
        assert s.chain_path.endswith("run_chain.txt")
        assert s.sample_path.endswith("run_sample.txt")
        assert s.report_path.endswith("run_report.txt")
        assert s.progress_path.endswith("run_progress.txt")
        assert s.restart_path.endswith("run_restart.bin")
        assert len(s.all_paths()) == 5
        assert OutputSuite("x", chain_format="binary").chain_path == "x_chain.bin"

    def test_validation(self):
        with pytest.raises(ValueError):
            OutputSuite("")
        with pytest.raises(ValueError):
            OutputSuite("x", chain_format="csv")
        with pytest.raises(ValueError):
            OutputSuite("x", delimiter=", ")


class TestAsciiChainFile:
    def test_frozen_seed_row_bytes(self, tmp_path):
        # the seed row of a unit-normal run started at the mode
        suite = OutputSuite(str(tmp_path / "run"))
        row = mk_row([0.0], -0.5 * math.log(2 * math.pi), weight=1,
                     rate=1.0, measure=0.0)
        with ChainWriter(suite, ("Var1",)) as w:
            w.write_row(row_fields(row))
        lines = Path(suite.chain_path).read_bytes().decode().split("\n")
        assert lines[0] == FORMAT_COMMENT
        assert lines[1] == (
            "ProcessID,DelayedRejectionStage,MeanAcceptanceRate,"
            "AdaptationMeasure,BurninLocation,SampleWeight,SampleLogFunc,Var1"
        )
        assert lines[2] == "1,0,1,0,0,1,-0.91893853320467267,0"

    def test_percent_delimiter_is_written_literally(self, tmp_path):
        # each row is rendered by one printf-style format built from the
        # delimiter
        suite = OutputSuite(str(tmp_path / "run"), delimiter="%")
        row = mk_row([0.25, -3.0], -1.5, weight=7, pid=2, stage=1, burnin=4)
        with ChainWriter(suite, ("a", "b")) as w:
            w.write_row(row_fields(row))
        lines = Path(suite.chain_path).read_bytes().decode().split("\n")
        assert lines[2] == "2%1%0.5%0%4%7%-1.5%0.25%-3"
        back = read_chain(suite.chain_path, "%")
        assert back.states.tolist() == [[0.25, -3.0]]

    def test_line_endings_are_lf_only(self, tmp_path):
        suite = OutputSuite(str(tmp_path / "run"))
        write_chain(suite, random_chain(1), ("a", "b", "c"))
        assert b"\r" not in Path(suite.chain_path).read_bytes()

    def test_round_trip_is_bitwise(self, tmp_path):
        suite = OutputSuite(str(tmp_path / "run"), delimiter=";")
        chain = random_chain(2)
        write_chain(suite, chain, ("a", "b", "c"))
        back = read_chain(suite.chain_path, delimiter=";")
        assert_chains_bitwise(chain, back)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=6,
        )
    )
    def test_extreme_doubles_survive(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("ascii")
        suite = OutputSuite(str(tmp / "run"))
        ch = CompactChain(len(values))
        ch.append_row(mk_row(values, values[0]))
        write_chain(suite, ch, tuple("v%d" % i for i in range(len(values))))
        back = read_chain(suite.chain_path)
        assert back.states.tobytes() == ch.states.tobytes()
        assert back.log_funcs.tobytes() == ch.log_funcs.tobytes()

    def test_subnormal_and_signed_zero(self, tmp_path):
        suite = OutputSuite(str(tmp_path / "run"))
        vals = [5e-324, -0.0, 1.7976931348623157e308, math.pi]
        ch = CompactChain(4)
        ch.append_row(mk_row(vals, -0.0))
        write_chain(suite, ch, ("a", "b", "c", "d"))
        back = read_chain(suite.chain_path)
        assert back.states.tobytes() == ch.states.tobytes()
        assert np.signbit(back.log_funcs[0])

    def test_malformed_files_raise(self, tmp_path):
        p = tmp_path / "bad_chain.txt"
        p.write_bytes(b"")
        with pytest.raises(IoFailure):
            read_chain(str(p))
        p.write_bytes(b"# format: v1\n")
        with pytest.raises(IoFailure):
            read_chain(str(p))
        p.write_bytes(b"# format: v1\n" + ",".join(FIXED_COLUMNS + ("x",)).encode()
                      + b"\n1,0,not_a_number\n")
        with pytest.raises(IoFailure):
            read_chain(str(p))


class TestBinaryChainFile:
    def test_frozen_seed_row_bytes(self, tmp_path):
        # the seed row of a unit-normal run started at the mode
        suite = OutputSuite(str(tmp_path / "run"), chain_format="binary")
        log_func = -0.5 * math.log(2 * math.pi)
        row = mk_row([0.0], log_func, weight=1, rate=1.0, measure=0.0)
        with ChainWriter(suite, ("Var1",)) as w:
            w.write_row(row_fields(row))
        want = (CHAIN_MAGIC + struct.pack("<III", 1, 1, 4) + b"Var1"
                + struct.pack("<IIddQQdd", 1, 0, 1.0, 0.0, 0, 1, log_func, 0.0))
        assert Path(suite.chain_path).read_bytes() == want
        back = read_chain(suite.chain_path)
        assert back.fields(0) == (1, 0, 1.0, 0.0, 0, 1, log_func, 0.0)

    def test_record_is_eighty_bytes_at_dim_four(self, tmp_path):
        suite = OutputSuite(str(tmp_path / "run"), chain_format="binary")
        names = ("a", "b", "c", "d")
        chain = random_chain(3, n=25, d=4)
        write_chain(suite, chain, names)
        header = len(CHAIN_MAGIC) + struct.calcsize("<III") + len("\x00".join(names))
        size = os.path.getsize(suite.chain_path)
        assert size == header + 25 * 80

    def test_round_trip_is_bitwise(self, tmp_path):
        suite = OutputSuite(str(tmp_path / "run"), chain_format="binary")
        chain = random_chain(4, n=80, d=2)
        write_chain(suite, chain, ("x1", "x2"))
        back = read_chain(suite.chain_path)
        assert_chains_bitwise(chain, back)

    def test_codecs_decode_identically(self, tmp_path):
        chain = random_chain(5, n=40, d=3)
        names = ("a", "b", "c")
        sa = OutputSuite(str(tmp_path / "a"))
        sb = OutputSuite(str(tmp_path / "b"), chain_format="binary")
        write_chain(sa, chain, names)
        write_chain(sb, chain, names)
        assert_chains_bitwise(read_chain(sa.chain_path), read_chain(sb.chain_path))

    def test_damage_is_detected(self, tmp_path):
        suite = OutputSuite(str(tmp_path / "run"), chain_format="binary")
        write_chain(suite, random_chain(6, n=10, d=2), ("a", "b"))
        raw = Path(suite.chain_path).read_bytes()
        p = tmp_path / "run2_chain.bin"
        p.write_bytes(raw[: len(raw) - 11])  # truncated mid-record
        with pytest.raises(IoFailure):
            read_chain(str(p))
        p.write_bytes(b"XXXXXXXX" + raw[8:])
        with pytest.raises(IoFailure):
            read_chain(str(p))
        p.write_bytes(CHAIN_MAGIC + struct.pack("<III", 9, 2, 3) + raw[20:])
        with pytest.raises(IoFailure):
            read_chain(str(p))
        p.write_bytes(raw[:20] + b"\xff" + raw[21:])  # name block not UTF-8
        with pytest.raises(IoFailure):
            read_chain(str(p))


def multichain_shaped(seed, lengths=(700, 650), d=3):
    """Chains as a multichain run steps them, chain i stamping i + 1: rows
    appended with weight 1 and their weights grown by increments, as the
    kernel grows them, so each chain's live row holds the increments past
    its last append."""
    r = np.random.default_rng(seed)
    chains = []
    for pid, n in enumerate(lengths, start=1):
        chain = CompactChain(d)
        for _ in range(n):
            chain.append_row(mk_row(
                r.standard_normal(d) * 10.0 ** r.integers(-4, 5),
                r.standard_normal() * 100, pid=pid,
                stage=int(r.integers(0, 3)), rate=float(r.random()),
                measure=float(r.random()), burnin=int(r.integers(0, 50)),
            ))
            chain.verbose_length += int(r.integers(0, 8))
        chains.append(chain)
    return chains


class TestBlockWrites:
    """ChainWriter.write_rows writes a range of a chain from its columns;
    the bytes are those write_row writes for each row's fields."""

    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_block_bytes_equal_row_bytes(self, tmp_path, fmt):
        names = ("a", "b", "c")
        first, second = multichain_shaped(1)
        rows = tmp_path / "rows"
        blocks = tmp_path / "blocks"
        with ChainWriter(OutputSuite(str(blocks), chain_format=fmt), names) as w:
            # a block that runs to the end of chain 1, then one that starts
            # chain 2 and ends on its live row's predecessor
            w.write_rows(first, 0, 300)
            w.write_rows(first, 300, first.n_rows)
            w.write_rows(second, 0, second.n_rows - 1)
            # the live row gains weight before the end of its chain
            second.verbose_length += 5
            w.write_rows(second, second.n_rows - 1, second.n_rows)
            w.write_rows(second, second.n_rows, second.n_rows)  # empty
        with ChainWriter(OutputSuite(str(rows), chain_format=fmt), names) as w:
            for chain in (first, second):
                for i in range(chain.n_rows):
                    w.write_row(chain.fields(i))
        path = OutputSuite(str(rows), chain_format=fmt).chain_path
        want = Path(path).read_bytes()
        got = Path(OutputSuite(str(blocks), chain_format=fmt).chain_path).read_bytes()
        assert got == want
        back = read_chain(path)
        assert back.n_rows == first.n_rows + second.n_rows
        assert back.weights[-1] == second.weights[-1]

    @pytest.mark.parametrize("column,value", [
        ("process_ids", -1),
        ("process_ids", 2 ** 32),
        ("dr_stages", 2 ** 32),
        ("burnin_locations", -1),
    ])
    def test_binary_encoder_refuses_what_its_field_cannot_hold(
        self, tmp_path, column, value
    ):
        # numpy casting would wrap these values silently
        suite = OutputSuite(str(tmp_path / "run"), chain_format="binary")
        chain = random_chain(12, n=20, d=2)
        clean = chain.fields(12)
        getattr(chain, column)[13] = value
        name = {"process_ids": "ProcessID", "dr_stages": "DelayedRejectionStage",
                "burnin_locations": "BurninLocation"}[column]
        with ChainWriter(suite, ("a", "b")) as w:
            header = w.tell()
            with pytest.raises(UnencodableValue,
                               match=r"^chain row 13: %s %d does not fit the "
                                     r"binary field <u" % (name, value)):
                w.write_rows(chain, 10, 20)
            with pytest.raises(UnencodableValue,
                               match=r"^chain row 0: %s %d " % (name, value)):
                w.write_row(chain.fields(13))
            with pytest.raises(UnencodableValue,
                               match=r"^chain row 0: SampleWeight 18446744073709551616 "):
                w.write_row(clean[:5] + (2 ** 64,) + clean[6:])
            # a refused block writes nothing
            assert w.tell() == header
            w.write_rows(chain, 0, 13)
            w.write_row(clean)
        assert read_chain(suite.chain_path).n_rows == 14

    def test_ascii_writes_integers_of_any_size(self, tmp_path):
        suite = OutputSuite(str(tmp_path / "run"))
        chain = random_chain(13, n=3, d=1)
        chain.process_ids[1] = -1
        with ChainWriter(suite, ("a",)) as w:
            w.write_rows(chain, 0, 3)
            w.write_row((2 ** 32, 0, 0.5, 0.0, 0, 1, -0.5, 1.0))
        lines = Path(suite.chain_path).read_bytes().decode().split("\n")
        assert lines[3].startswith("-1,") and lines[5].startswith("4294967296,")


class TestDamagedRows:
    """Either codec reads a file into columns; a row it cannot decode into
    them refuses the read with IoFailure naming the first such row, however
    far into the file it lies."""

    NAMES = ("a", "b")
    # ascii field index of each damage kind; "fields" drops the last field
    FIELD = {"pid": 0, "burnin": 4, "weight": 5, "state": 8}

    def write(self, tmp_path, fmt, rows):
        suite = OutputSuite(str(tmp_path / "run"), chain_format=fmt)
        with ChainWriter(suite, self.NAMES) as w:
            for row in rows:
                w.write_row(row_fields(row))
        return suite.chain_path

    def rows(self, seed, n):
        chain = random_chain(seed, n=n, d=len(self.NAMES))
        return [chain.row(i) for i in range(n)]

    def damage_ascii(self, path, damage):
        lines = Path(path).read_bytes().split(b"\n")
        for row, (kind, text) in damage.items():
            fields = lines[row + 2].split(b",")  # format and header lines
            if kind == "fields":
                del fields[-1]
            else:
                fields[self.FIELD[kind]] = text
            lines[row + 2] = b",".join(fields)
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))

    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    @pytest.mark.parametrize("field", ["weight", "burnin_location"])
    @pytest.mark.parametrize("value", [2 ** 63, 2 ** 64 - 1])
    def test_past_int64_is_a_damaged_row(self, tmp_path, fmt, field, value):
        rows = self.rows(7, 30)
        setattr(rows[12], field, value)
        path = self.write(tmp_path, fmt, rows)
        with pytest.raises(IoFailure,
                           match=r"^damaged chain row 12: .*does not fit int64"):
            read_chain(path)

    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_verbose_length_past_int64_is_a_damaged_row(self, tmp_path, fmt):
        rows = self.rows(8, 6)
        rows[1].weight = rows[3].weight = 2 ** 62
        path = self.write(tmp_path, fmt, rows)
        with pytest.raises(IoFailure,
                           match=r"^damaged chain row 3: verbose length"):
            read_chain(path)

    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_damage_past_the_first_block_names_its_row(self, tmp_path, fmt):
        path = self.write(tmp_path, fmt, self.rows(9, 1100))
        if fmt == "ascii":
            self.damage_ascii(path, {700: ("pid", b"x"), 900: ("weight", b"0")})
        else:
            raw = bytearray(Path(path).read_bytes())
            record = struct.calcsize("<IIddQQd" + "d" * len(self.NAMES))
            body = len(raw) - 1100 * record
            for row in (700, 900):
                struct.pack_into("<Q", raw, body + row * record + 32, 0)
            with open(path, "wb") as fh:
                fh.write(bytes(raw))
        with pytest.raises(IoFailure, match=r"^damaged chain row 700: "):
            read_chain(path)

    @pytest.mark.parametrize("damage,first,reason", [
        ({600: ("weight", b"0"), 650: ("pid", b"x")}, 600, "SampleWeight 0 is below 1"),
        ({650: ("fields", None), 620: ("state", b"1.5.2")}, 620, "b: could not convert"),
        ({530: ("state", b"?"), 520: ("burnin", b"99999999999999999999")}, 520,
         "BurninLocation 99999999999999999999 does not fit int64"),
        ({700: ("fields", None), 701: ("weight", b"-1")}, 700, "8 fields, expected 9"),
        ({1099: ("weight", b"-3")}, 1099, "SampleWeight -3 is below 1"),
    ])
    def test_first_damaged_row_of_a_block_is_named(
        self, tmp_path, damage, first, reason
    ):
        path = self.write(tmp_path, "ascii", self.rows(10, 1100))
        self.damage_ascii(path, damage)
        with pytest.raises(IoFailure) as info:
            read_chain(path)
        assert str(info.value).startswith("damaged chain row %d: %s" % (first, reason))

    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_round_trip_across_blocks_is_bitwise(self, tmp_path, fmt):
        chain = random_chain(11, n=1100, d=2)
        path = self.write(tmp_path, fmt, [chain.row(i) for i in range(1100)])
        back = read_chain(path)
        assert_chains_bitwise(chain, back)
        assert back.verbose_starts.tobytes() == chain.verbose_starts.tobytes()
        assert back.verbose_length == chain.verbose_length


INT64_MAX = 2 ** 63 - 1
# doubles where a text codec slips first: signed zeros, subnormals, the
# extremes and values that need all 17 digits
EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 1.7976931348623157e308,
                0.1, 1 / 3, -2 / 3 * 1e-300, 9007199254740993.0]


@st.composite
def drawn_chains(draw):
    """A chain of 1-12 rows at d = 1-3: integers anywhere in int64, weights
    whose running sum may reach the int64 limit, any finite or infinite
    double."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    reals = st.one_of(st.floats(allow_nan=False, width=64),
                      st.sampled_from(EDGE_DOUBLES))
    ints = st.integers(-2 ** 63, INT64_MAX)
    weights = draw(st.lists(st.integers(1, INT64_MAX // n), min_size=n, max_size=n))
    if draw(st.booleans()):
        weights[-1] += INT64_MAX - sum(weights)  # the running sum ends at the limit
    records = {
        "process_id": [draw(ints) for _ in range(n)],
        "dr_stage": [draw(ints) for _ in range(n)],
        "mean_acceptance_rate": [draw(reals) for _ in range(n)],
        "adaptation_measure": [draw(reals) for _ in range(n)],
        "burnin_location": [draw(ints) for _ in range(n)],
        "weight": weights,
        "log_func": [draw(reals) for _ in range(n)],
    }
    states = [[draw(reals) for _ in range(d)] for _ in range(n)]
    return CompactChain.from_columns(
        {name: np.array(v, dtype=ROW_DTYPE[name]) for name, v in records.items()},
        np.array(states, dtype=float))


class TestAsciiRoundTrip:
    """ChainWriter's text and read_chain's decode invert each other bit for
    bit, for whole files and for prefixes cut at row boundaries, and a
    damaged field refuses the read naming its row."""

    @settings(max_examples=80, deadline=None)
    @given(chain=drawn_chains(), delimiter=st.sampled_from([",", ";", "|", "%", ":"]),
           data=st.data())
    def test_written_rows_read_back_bitwise(self, tmp_path_factory, chain,
                                            delimiter, data):
        suite = OutputSuite(str(tmp_path_factory.mktemp("rt") / "run"),
                            delimiter=delimiter)
        names = ["x%d" % j for j in range(chain.dimension)]
        with ChainWriter(suite, names) as w:
            w.write_rows(chain, 0, chain.n_rows)
        back = read_chain(suite.chain_path, delimiter)
        assert_chains_bitwise(chain, back)
        assert back.verbose_length == chain.verbose_length

        raw = Path(suite.chain_path).read_bytes()
        ends = [i + 1 for i, c in enumerate(raw) if c == ord("\n")][1:]
        rows = data.draw(st.integers(0, chain.n_rows), label="prefix rows")
        cut = read_chain(suite.chain_path, delimiter, size=ends[rows])
        assert_chains_bitwise(chain.slice(0, rows), cut)

        lines = raw.split(b"\n")
        row = data.draw(st.integers(0, chain.n_rows - 1), label="damaged row")
        fields = lines[row + 2].split(delimiter.encode())
        field = data.draw(st.integers(0, len(fields) - 1), label="damaged field")
        fields[field] = data.draw(st.sampled_from([b"x", b"", b"1.5.2", b"0x1"]),
                                  label="damage")
        lines[row + 2] = delimiter.encode().join(fields)
        with open(suite.chain_path, "wb") as fh:
            fh.write(b"\n".join(lines))
        with pytest.raises(IoFailure, match=r"^damaged chain row %d: " % row):
            read_chain(suite.chain_path, delimiter)


class TestAsciiEdgeLines:
    """Lines where numpy's C reader and Python's int() and float() part
    ways. Each is decoded as Python decoded it, or refused naming its row;
    CHANGES.md lists the refused lines that Python's parse accepted."""

    HEADER = (FORMAT_COMMENT + "\n" + ",".join(FIXED_COLUMNS + ("a", "b"))
              + "\n").encode()
    ROWS = [b"1,0,0.5,0,0,2,-1.25,0.5,-3", b"1,1,0.25,0.125,0,1,-2.5,1.5,2"]
    VALUES = [(1, 0, 0.5, 0.0, 0, 2, -1.25, 0.5, -3.0),
              (1, 1, 0.25, 0.125, 0, 1, -2.5, 1.5, 2.0)]

    def read(self, tmp_path, body):
        path = tmp_path / "edge_chain.txt"
        path.write_bytes(self.HEADER + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return read_chain(str(path))

    @pytest.mark.parametrize("body", [
        b"%s\n\n%s\n",  # an empty line
        b"%s\n# a comment\n%s\n",  # a comment line after the header
        b"%s\r\n%s\r\n",  # CRLF line ends
        b"%s\n%s",  # no final newline
    ], ids=["empty-line", "comment-line", "crlf", "unterminated"])
    def test_lines_python_decoded_decode_the_same(self, tmp_path, body):
        chain = self.read(tmp_path, body % tuple(self.ROWS))
        assert [chain.fields(i) for i in range(chain.n_rows)] == self.VALUES

    @pytest.mark.parametrize("body", [b"", b"\n", b"\n\n"], ids=["none", "one", "two"])
    def test_a_body_without_rows_is_an_empty_chain(self, tmp_path, body):
        assert self.read(tmp_path, body).n_rows == 0

    @pytest.mark.parametrize("second,reason", [
        (b"   ", "1 fields, expected 9"),  # whitespace only, refused before
        (b"\r", "1 fields, expected 9"),  # a CR line, refused before
        # Python's int() and float() took these; the C reader refuses them,
        # named by their column and quoted as the file's UTF-8 text
        (b"1,1\r,0.25,0.125,0,1,-2.5,1.5,2", "DelayedRejectionStage: cannot parse '1\\r'"),
        (b"1,1,0.25,0.125,0,1_0,-2.5,1.5,2", "SampleWeight: cannot parse '1_0'"),
        (b"1,1,0.25,0.125,0,1,-2.5,1_5,2", "a: cannot parse '1_5'"),
        ("1,1,0.25,0.125,0,١,-2.5,1.5,2".encode(), "SampleWeight: cannot parse '١'"),
        ("1,1,0.25,0.125,0,1,-2.5,1.5,２".encode(), "b: cannot parse '２'"),
        ("1,1,0.25,0.125,0,1,-2.5,1.5,2\u00a0".encode(), "b: cannot parse '2\\xa0'"),
        # not UTF-8, refused before without a row
        (b"1,1,0.25,0.125,0,1,-2.5,\xff,2", "a: could not convert string to float"),
    ], ids=["whitespace", "cr-line", "cr-inside", "underscore-int",
            "underscore-float", "arabic-indic-digit", "fullwidth-digit",
            "no-break-space", "not-utf8"])
    def test_refused_lines_are_named(self, tmp_path, second, reason):
        with pytest.raises(IoFailure) as info:
            self.read(tmp_path, self.ROWS[0] + b"\n" + second + b"\n")
        message = str(info.value)
        assert message.startswith("damaged chain row 1: " + reason)
        # neither numpy's one-line position nor its latin-1 text
        assert "at row" not in message and "\u00c3" not in message

    @pytest.mark.parametrize("extra,decodes", [(b"", 1), (b"# a comment", 2)],
                             ids=["empty", "comment"])
    def test_skipped_lines_need_no_line_by_line_search(self, tmp_path, monkeypatch,
                                                       extra, decodes):
        # in a chain without damage, an empty line, which the C reader
        # skips, costs no second decode; a comment line, which it refuses,
        # is dropped by one decode of the kept rows. A clean file takes one.
        chain = random_chain(5, n=200)
        suite = OutputSuite(str(tmp_path / "run"))
        write_chain(suite, chain, ("a", "b", "c"))
        calls = []

        def counted(*args):
            calls.append(args)
            return decode_lines(*args)

        def unreachable(*args):
            raise AssertionError("line-by-line search of a chain without damage")

        decode_lines = persist._decode_lines
        monkeypatch.setattr(persist, "_decode_lines", counted)
        monkeypatch.setattr(persist, "_first_damaged", unreachable)
        clean = read_chain(suite.chain_path)
        assert len(calls) == 1
        lines = Path(suite.chain_path).read_bytes().split(b"\n")
        lines.insert(100, extra)
        with open(suite.chain_path, "wb") as fh:
            fh.write(b"\n".join(lines))
        del calls[:]
        assert_chains_bitwise(read_chain(suite.chain_path), clean)
        assert len(calls) == decodes


class TestRefusedHeaders:
    @pytest.mark.parametrize("name,raw,error,message", [
        ("run_chain.bin", CHAIN_MAGIC + b"\x01\x00", IoFailure,
         "binary chain file truncated before header"),
        ("run_chain.bin", CHAIN_MAGIC + struct.pack("<III", 1, 1, 10) + b"Var",
         IoFailure, "binary chain file truncated in name block"),
        ("run_chain.bin", CHAIN_MAGIC + struct.pack("<III", 1, 3, 3) + b"a\x00b",
         IoFailure, "name block holds 2 names for dimension 3"),
        ("run_chain.txt", (FORMAT_COMMENT + "\n").encode() + b"\xff\xfe,x\n",
         IoFailure, "chain file is not text"),
        ("run_chain.txt", (FORMAT_COMMENT + "\n" + ",".join(FIXED_COLUMNS)
                           + "\n").encode(),
         IoFailure, "chain header declares no variables"),
        ("run_restart.bin", RESTART_MAGIC + struct.pack("<II", 2, 0), CorruptRestart,
         "unsupported snapshot version 2"),
    ], ids=["binary-before-header", "binary-in-name-block", "binary-name-count",
            "ascii-not-text", "ascii-no-variables", "snapshot-version"])
    def test_refused_header_is_named(self, tmp_path, name, raw, error, message):
        path = tmp_path / name
        path.write_bytes(raw)
        read = read_snapshot if name.endswith("restart.bin") else read_chain
        with pytest.raises(error) as info:
            read(str(path))
        assert type(info.value) is error
        assert str(info.value).startswith(message)


class TestSampleFile:
    def test_layout_and_values(self, tmp_path):
        pts = np.array([[1.5, -2.25], [0.1, 3e-200]])
        refined = RefinedSample(2, pts, np.array([-1.0, -0.625]), 10, ())
        path = str(tmp_path / "run_sample.txt")
        write_sample(path, refined)
        lines = Path(path).read_bytes().decode().split("\n")
        assert lines[0] == FORMAT_COMMENT
        assert lines[1] == "SampleLogFunc,Var1,Var2"
        assert lines[2] == "-1,1.5,-2.25"
        got = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:4]])
        assert got[:, 1:].tobytes() == pts.tobytes()
        assert lines[4] == ""


class TestProgressFile:
    def test_header_and_ticks(self, tmp_path):
        path = str(tmp_path / "run_progress.txt")
        tick = {
            "verbose_length": 1000,
            "compact_length": 747,
            "mean_acceptance_rate": 0.747,
            "last_adaptation_measure": 0.125,
        }
        with ProgressWriter(path) as w:
            w.write_tick(tick, elapsed_seconds=1.25)
            w.write_tick({**tick, "verbose_length": 2000}, elapsed_seconds=None)
        lines = Path(path).read_bytes().decode().split("\n")
        assert lines[0] == FORMAT_COMMENT
        assert lines[1] == ProgressWriter.HEADER
        assert lines[2] == "1000,747,0.747,0.125,1.250"
        assert lines[3].endswith(",")  # elapsed left empty when unknown
        assert lines[3].startswith("2000,747,")

    def test_append_mode_skips_the_header(self, tmp_path):
        path = str(tmp_path / "run_progress.txt")
        tick = {
            "verbose_length": 1000,
            "compact_length": 900,
            "mean_acceptance_rate": 0.9,
            "last_adaptation_measure": 0.0,
        }
        with ProgressWriter(path) as w:
            w.write_tick(tick, 0.5)
        n_before = len(Path(path).read_bytes().split(b"\n"))
        with ProgressWriter(path, append=True) as w:
            w.write_tick({**tick, "verbose_length": 2000}, 0.9)
        lines = Path(path).read_bytes().split(b"\n")
        assert len(lines) == n_before + 1
        assert lines.count(FORMAT_COMMENT.encode()) == 1


@pytest.fixture()
def tiny_summary():
    cfg = KernelConfig(20, (0.0,), rng_seed=1, dr_stage_count=0)
    return run_kernel(
        TargetDensity("flat", 1, lambda x: 0.0), cfg, ProposalState.create(1)
    )


class TestReport:
    ECHO = (
        ("target", "mvn", "target density the run samples"),
        ("dim", "1", "dimension of the state space"),
        ("seed", "1", "random stream seed"),
    )

    def test_echo_round_trip_and_terminator(self, tmp_path, tiny_summary):
        suite = OutputSuite(str(tmp_path / "run"))
        write_report(
            suite,
            self.ECHO,
            tiny_summary,
            None,
            build_speedup_report(1.0),
            mode="serial",
        )
        text = Path(suite.report_path).read_bytes().decode()
        lines = [ln for ln in text.split("\n") if ln.strip()]
        assert lines[-1] == REPORT_TERMINATOR
        assert text.count(ECHO_BEGIN) == 1 and text.count(ECHO_END) == 1
        assert parse_config_file(suite.report_path) == {
            "target": "mvn", "dim": "1", "seed": "1"
        }

    def test_incomplete_report_has_no_terminator(self, tmp_path, tiny_summary):
        suite = OutputSuite(str(tmp_path / "run"))
        write_report(
            suite,
            self.ECHO,
            tiny_summary,
            None,
            build_speedup_report(1.0),
            mode="serial",
        )
        cut_last_line(suite.report_path)
        text = Path(suite.report_path).read_bytes().decode()
        assert REPORT_TERMINATOR not in text
        assert text.endswith("=" * 72 + "\n")

    def test_optional_sections_appear_when_given(self, tmp_path, tiny_summary):
        from dramp.parallel import ContributionTally
        from dramp.refine import cross_chain_check

        suite = OutputSuite(str(tmp_path / "run"))
        pts = np.random.default_rng(3).standard_normal((200, 1))
        refined = [
            RefinedSample(1, pts + k * 0.01, -0.5 * pts[:, 0] ** 2, 200, ())
            for k in range(2)
        ]
        write_report(
            suite,
            self.ECHO,
            tiny_summary,
            refined[0],
            build_speedup_report(0.5),
            mode="forkjoin",
            check=cross_chain_check(refined),
            tally=ContributionTally(2, (15, 4)),
        )
        text = Path(suite.report_path).read_bytes().decode()
        assert "WORKER CONTRIBUTIONS" in text
        assert "CONVERGENCE CHECK" in text
        assert "refined sample size      : 200" in text
        assert "rank    1: 15" in text


def hexes(values):
    return [v.hex() for v in values]


class TestSnapshot:
    PAYLOAD = {
        "ints": [1, 2, 3],
        "big": 2 ** 80,
        "word": 2 ** 128 - 1,  # the size of a PCG64 state word
        "floats": {"pi": math.pi, "tiny": 5e-324, "nz": -0.0,
                   "inf": math.inf, "ninf": -math.inf, "nan": math.nan},
        "rows": [[1.0, -0.0], [1e308, 2.5e-310]],
        "text": "hello",
        "none": None,
        "flag": True,
    }

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(width=64), max_size=8))
    def test_round_trip_is_exact(self, tmp_path_factory, drawn):
        path = str(tmp_path_factory.mktemp("snap") / "run_restart.bin")
        write_snapshot(path, dict(self.PAYLOAD, drawn=drawn))
        back = read_snapshot(path)
        assert back["ints"] == [1, 2, 3]
        assert back["big"] == 2 ** 80
        assert back["word"] == 2 ** 128 - 1
        # every float by its bits: -0.0 keeps its sign, NaN and the
        # infinities come back as themselves
        floats = self.PAYLOAD["floats"]
        assert set(back["floats"]) == set(floats)
        assert hexes(back["floats"][k] for k in floats) == hexes(floats.values())
        assert [hexes(r) for r in back["rows"]] == [
            hexes(r) for r in self.PAYLOAD["rows"]]
        assert hexes(back["drawn"]) == hexes(drawn)
        assert back["text"] == "hello" and back["none"] is None
        assert back["flag"] is True

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "run_restart.bin")
        write_snapshot(path, {"a": 1})
        write_snapshot(path, {"a": 2})  # appended: the last record is read
        assert read_snapshot(path)["a"] == 2
        assert os.listdir(tmp_path) == ["run_restart.bin"]

    def test_each_snapshot_appends_one_record(self, tmp_path):
        path = str(tmp_path / "run_restart.bin")
        sizes = []
        for a in range(3):
            write_snapshot(path, {"a": a})
            sizes.append(os.path.getsize(path))
        one = sizes[0]
        assert sizes == [one, 2 * one, 3 * one]
        snap = read_snapshot(path)
        assert snap == {"a": 2} and snap.end == 3 * one
        # a torn tail is ignored, and the snapshot ends where it begins
        for cut in (one - 1, len(RESTART_MAGIC) + 3, 1):
            os.truncate(path, 2 * one + cut)
            snap = read_snapshot(path)
            assert snap == {"a": 1} and snap.end == 2 * one

    def test_log_past_the_limit_is_replaced(self, tmp_path, monkeypatch):
        monkeypatch.setattr(persist, "SNAPSHOT_LOG_LIMIT", 100)
        path = str(tmp_path / "run_restart.bin")
        write_snapshot(path, {"a": 0})
        one = os.path.getsize(path)
        sizes = []
        for a in range(1, 8):
            write_snapshot(path, {"a": a})
            sizes.append(os.path.getsize(path))
        # two records pass 100 bytes, so the next record replaces them
        assert one < 100 <= 2 * one
        assert sizes == [2 * one, one] * 3 + [2 * one]
        assert read_snapshot(path) == {"a": 7}
        assert os.listdir(tmp_path) == ["run_restart.bin"]

    @pytest.mark.parametrize("raw,message", [
        (b"", "restart file holds no complete snapshot"),
        (RESTART_MAGIC[:5], "restart file holds no complete snapshot"),
        (b"garbage", "restart record at byte 0 lacks the snapshot magic"),
    ], ids=["empty", "torn-magic", "garbage"])
    def test_no_complete_record_raises(self, tmp_path, raw, message):
        path = tmp_path / "run_restart.bin"
        path.write_bytes(raw)
        with pytest.raises(CorruptRestart, match=message):
            read_snapshot(str(path))

    def test_damage_after_a_complete_record_raises(self, tmp_path):
        path = str(tmp_path / "run_restart.bin")
        write_snapshot(path, {"a": 1})
        one = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"NOTMAGIC")
        with pytest.raises(CorruptRestart, match="at byte %d lacks" % one):
            read_snapshot(path)

    def test_checksum_catches_a_flipped_byte(self, tmp_path):
        path = str(tmp_path / "run_restart.bin")
        write_snapshot(path, self.PAYLOAD)
        raw = bytearray(Path(path).read_bytes())
        raw[len(RESTART_MAGIC) + 8 + 5] ^= 0x40
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(CorruptRestart):
            read_snapshot(path)

    def test_structural_damage_raises(self, tmp_path):
        path = str(tmp_path / "run_restart.bin")
        write_snapshot(path, {"a": 1})
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-7])
        with pytest.raises(CorruptRestart):
            read_snapshot(path)
        Path(path).write_bytes(b"NOTMAGIC" + raw[8:])
        with pytest.raises(CorruptRestart):
            read_snapshot(path)
        with pytest.raises(CorruptRestart):
            read_snapshot(str(tmp_path / "missing.bin"))

    @pytest.mark.parametrize("bad", [object(), np.array([[1.0, -0.0]])],
                             ids=["object", "ndarray"])
    def test_unsnapshotable_value_raises(self, tmp_path, bad):
        # the payload is plain JSON: an array goes in as a list
        with pytest.raises(TypeError):
            write_snapshot(str(tmp_path / "x.bin"), {"bad": bad})
        assert os.listdir(tmp_path) == []


class TestDetectIncomplete:
    def chain_and_restart(self, prefix):
        suite = OutputSuite(prefix)
        write_chain(suite, random_chain(7, n=5, d=1), ("x",))
        write_snapshot(suite.restart_path, {"rows": 4})

    def test_fresh_when_nothing_exists(self, tmp_path):
        assert detect_incomplete(str(tmp_path / "run")) == (RunState.FRESH, None)

    def test_restartable_with_chain_and_snapshot(self, tmp_path):
        prefix = str(tmp_path / "run")
        self.chain_and_restart(prefix)
        # the decoded snapshot comes back with the state
        assert detect_incomplete(prefix) == (RunState.RESTARTABLE, {"rows": 4})

    def test_complete_needs_the_terminator(self, tmp_path, tiny_summary):
        prefix = str(tmp_path / "run")
        self.chain_and_restart(prefix)
        suite = OutputSuite(prefix)
        write_report(suite, TestReport.ECHO, tiny_summary,
                     None, build_speedup_report(1.0), mode="serial")
        cut_last_line(suite.report_path)
        assert detect_incomplete(prefix) == (RunState.RESTARTABLE, {"rows": 4})
        write_report(suite, TestReport.ECHO, tiny_summary,
                     None, build_speedup_report(1.0), mode="serial")
        assert detect_incomplete(prefix) == (RunState.COMPLETE, None)

    def test_leftovers_without_snapshot_are_corrupt(self, tmp_path):
        prefix = str(tmp_path / "run")
        suite = OutputSuite(prefix)
        write_chain(suite, random_chain(8, n=5, d=1), ("x",))
        with pytest.raises(CorruptRestart):
            detect_incomplete(prefix)

    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_row_free_leftovers_are_fresh(self, tmp_path, fmt):
        # what a run stopped before its first snapshot leaves behind
        prefix = str(tmp_path / "run")
        suite = OutputSuite(prefix, chain_format=fmt)
        names = ("Var1", "Var10")  # a name block holding a newline byte
        write_chain(suite, random_chain(8, n=0, d=2), names)
        ProgressWriter(suite.progress_path).close()
        assert detect_incomplete(prefix) == (RunState.FRESH, None)
        header = Path(suite.chain_path).read_bytes()
        Path(suite.chain_path).write_bytes(header[:-3])  # header cut short
        assert detect_incomplete(prefix) == (RunState.FRESH, None)
        write_chain(suite, random_chain(8, n=1, d=2), names)
        with pytest.raises(CorruptRestart):
            detect_incomplete(prefix)
        Path(suite.chain_path).write_bytes(header + b"1")  # a row's first byte
        with pytest.raises(CorruptRestart):
            detect_incomplete(prefix)

    @pytest.mark.parametrize("cut", [0, 5, 20], ids=["empty", "in-magic", "in-body"])
    def test_torn_first_record_is_no_snapshot(self, tmp_path, cut):
        # what a run stopped while appending its first snapshot leaves
        prefix = str(tmp_path / "run")
        suite = OutputSuite(prefix)
        write_chain(suite, random_chain(8, n=0, d=2), ("Var1", "Var2"))
        write_snapshot(suite.restart_path, {"rows": 0})
        os.truncate(suite.restart_path, cut)
        assert detect_incomplete(prefix) == (RunState.FRESH, None)
        write_chain(suite, random_chain(8, n=1, d=2), ("Var1", "Var2"))
        with pytest.raises(CorruptRestart, match="neither complete nor resumable"):
            detect_incomplete(prefix)

    def test_damaged_snapshot_is_corrupt_not_fresh(self, tmp_path):
        prefix = str(tmp_path / "run")
        self.chain_and_restart(prefix)
        Path(prefix + "_restart.bin").write_bytes(b"garbage")
        with pytest.raises(CorruptRestart):
            detect_incomplete(prefix)

    def test_orphan_sample_is_corrupt(self, tmp_path):
        prefix = str(tmp_path / "run")
        Path(prefix + "_sample.txt").write_bytes(b"# format: v1\n")
        with pytest.raises(CorruptRestart):
            detect_incomplete(prefix)
