"""Configuration resolution, the command-line front end, and crash recovery."""

import dataclasses
import hashlib
import importlib
import math
import os
import pathlib
import pkgutil
import signal
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import dramp
from dramp.chain import CompactChain
from dramp.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_RUNTIME,
    FIGURES,
    build_parser,
    main,
)
from dramp.config import (
    DIGEST_EXCLUDED,
    FIELD_DESCRIPTIONS,
    MODES,
    SNAPSHOT_FORMAT_VERSION,
    TRAJECTORY_VERSION,
    build_spec,
    check_restart_compatibility,
    parse_config_file,
    spec_digest,
    spec_to_items,
)
import dramp.config
import dramp.driver
import dramp.kernel
import dramp.persist
from dramp.driver import run_simulation
from dramp.errors import BadDimension, CorruptRestart, SpecMismatch
from dramp.kernel import BLOCK, Kernel
from dramp.model import TargetDensity, gaussian_target
from dramp.parallel import PREDICTION_GRID
from dramp.persist import (
    CHAIN_MAGIC,
    ECHO_BEGIN,
    ECHO_END,
    FORMAT_COMMENT,
    RESTART_MAGIC,
    SNAPSHOT_LOG_LIMIT,
    ChainWriter,
    OutputSuite,
    RunState,
    detect_incomplete,
    read_chain,
    read_snapshot,
    write_snapshot,
)


class Interrupt(RuntimeError):
    """Raised from an event callback to kill a run mid-flight."""


def interrupt_after(n_rows):
    seen = [0]

    def bomb(event):
        if event[0] == "row_final":
            seen[0] += 1
            if seen[0] >= n_rows:
                raise Interrupt()

    return bomb


def run_to_interrupt(spec, n_rows):
    with pytest.raises(Interrupt):
        run_simulation(spec, on_event=interrupt_after(n_rows))


def hex_encoded(obj):
    """``obj`` in the transport of snapshot formats 1 to 3: each float as
    {"__float__": its hex}, each array as its shape and its floats' hexes."""
    if isinstance(obj, float):
        return {"__float__": obj.hex()}
    if isinstance(obj, np.ndarray):
        return {"__array__": list(obj.shape),
                "data": [v.hex() for v in obj.ravel().tolist()]}
    if isinstance(obj, dict):
        return {k: hex_encoded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [hex_encoded(v) for v in obj]
    return obj


def write_flat_chain(path, weights, delimiter=","):
    """Hand-build a one-dimensional serial chain with the given row weights."""
    prefix = str(path)[: -len("_chain.txt")]
    suite = OutputSuite(prefix=prefix, chain_format="ascii", delimiter=delimiter)
    with ChainWriter(suite, ("Var1",)) as writer:
        for i, w in enumerate(weights):
            # pid, stage, acceptance rate, measure, burn-in, weight, log f, x
            writer.write_row((1, 0, 0.5, 0.0, 0, int(w), -0.5, float(i)))
    return suite.chain_path


class TestParseConfigFile:
    def test_comments_and_blanks_skipped(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("# a comment\n\nseed = 11\n  dim=3  \n# trailing\n")
        assert parse_config_file(str(cfg)) == {"seed": "11", "dim": "3"}

    def test_missing_equals_reports_line_number(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("seed = 1\nnot a pair\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_config_file(str(cfg))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("sede = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(str(cfg))

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_file(str(cfg))

    def test_a_report_yields_its_echo_only(self, tmp_path):
        cfg = tmp_path / "r.txt"
        cfg.write_text("REPORT\n%s\n# the seed\nseed = 5\n%s\nrate : 0.5\n"
                       % (ECHO_BEGIN, ECHO_END))
        assert parse_config_file(str(cfg)) == {"seed": "5"}
        cfg.write_text("REPORT\n%s\nseed = 5\nnot a pair\n%s\n"
                       % (ECHO_BEGIN, ECHO_END))
        with pytest.raises(ValueError, match=":4:"):
            parse_config_file(str(cfg))


class TestBuildSpec:
    def test_defaults_resolve(self):
        spec = build_spec({"out": "x"})
        assert spec.target_spec.kind == "mvn"
        assert spec.target_spec.dimension == 2
        assert spec.target_spec.mean == (0.0, 0.0)
        assert tuple(spec.target_spec.covariance) == (1.0, 0.0, 0.0, 1.0)
        assert spec.kernel.chain_length_target == 10000
        assert spec.kernel.start_point == (0.0, 0.0)
        assert spec.kernel.rng_seed == 0
        assert spec.kernel.dr_stage_count == 1
        assert spec.kernel.adaptation_period == 100
        assert spec.kernel.greedy_adaptation_count == 4
        assert spec.dr_scales == (0.5,)
        assert spec.scale_factor == pytest.approx(2.38 / np.sqrt(2.0), rel=1e-15)
        assert spec.mode == "serial"
        assert (spec.n_chains, spec.worker_count) == (1, 1)
        assert spec.output.chain_format == "ascii"
        assert spec.output.delimiter == ","
        assert spec.deterministic_test_mode is False

    def test_out_required(self):
        with pytest.raises(ValueError, match="out"):
            build_spec({})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            build_spec({"out": "x", "sede": "1"})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dim": "0"},
            {"target": "himmelblau", "dim": "3"},
            {"target": "banana", "dim": "1"},
        ],
    )
    def test_dimension_rules(self, overrides):
        values = {"out": "x"}
        values.update(overrides)
        with pytest.raises(BadDimension):
            build_spec(values)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("target-mean", "1,2,3"),
            ("target-cov", "1,0,0"),
            ("start", "0"),
        ],
    )
    def test_vector_length_checks(self, key, value):
        with pytest.raises(BadDimension, match=key):
            build_spec({"out": "x", "dim": "2", key: value})

    def test_dr_scales_must_cover_stages(self):
        with pytest.raises(ValueError, match="dr-scales"):
            build_spec({"out": "x", "dr-stages": "3", "dr-scales": "0.5,0.25"})

    def test_scale_factor_must_be_positive(self):
        with pytest.raises(ValueError, match="scale-factor"):
            build_spec({"out": "x", "scale-factor": "0"})

    @pytest.mark.parametrize(
        "key,value,match",
        [
            ("target", "cauchy", "target"),
            ("mode", "threads", "mode"),
            ("chains", "0", "chains"),
            ("workers", "0", "workers"),
            ("dr-stages", "-1", "dr-stages"),
            ("dim", "two", "dim"),
            ("target-mean", "a,b", "target-mean"),
            ("chain-len", "0", "chain-len"),
            ("adaptation-period", "0", "adaptation-period"),
            ("greedy-count", "-1", "greedy-count"),
            ("seed", "-1", "seed"),
        ],
    )
    def test_bad_values_name_their_field(self, key, value, match):
        with pytest.raises(ValueError, match=match):
            build_spec({"out": "x", key: value})

    @pytest.mark.parametrize("text", ["true", "1", "yes", "on"])
    def test_bool_true_spellings(self, text):
        spec = build_spec({"out": "x", "deterministic-test-mode": text})
        assert spec.deterministic_test_mode is True

    @pytest.mark.parametrize("text", ["false", "0", "no", "off"])
    def test_bool_false_spellings(self, text):
        spec = build_spec({"out": "x", "deterministic-test-mode": text})
        assert spec.deterministic_test_mode is False

    def test_bool_garbage_rejected(self):
        with pytest.raises(ValueError, match="deterministic-test-mode"):
            build_spec({"out": "x", "deterministic-test-mode": "maybe"})


class TestSpecRendering:
    def spec(self, **overrides):
        values = {"out": "run", "seed": "7", "chain-len": "500"}
        values.update({k: str(v) for k, v in overrides.items()})
        return build_spec(values)

    def test_items_round_trip_exactly(self):
        spec = self.spec(
            **{"target-mean": "0.1,-2", "target-cov": "2,0.3,0.3,0.5",
               "scale-factor": "1.7", "dr-stages": "2"}
        )
        items = spec_to_items(spec)
        rebuilt = build_spec({key: value for key, value, _ in items})
        assert rebuilt == spec

    def test_item_keys_documented_and_unique(self):
        items = spec_to_items(self.spec())
        keys = [key for key, _, _ in items]
        assert len(keys) == len(set(keys))
        for key, _, description in items:
            assert description == FIELD_DESCRIPTIONS[key]

    def test_gaussian_echo_key_set(self):
        # shape knobs of the other target families are not echoed
        keys = {key for key, _, _ in spec_to_items(self.spec())}
        assert keys == set(FIELD_DESCRIPTIONS) - {
            "target-scale",
            "target-curvature",
            "target-sigma1",
        }

    def test_digest_ignores_bookkeeping_fields(self):
        base = self.spec()
        changed = {
            "chain-len": "123",
            "out": "elsewhere",
            "format": "binary",
            "delimiter": ";",
            "deterministic-test-mode": "true",
        }
        assert set(changed) == set(DIGEST_EXCLUDED)
        for key, value in changed.items():
            assert spec_digest(self.spec(**{key: value})) == spec_digest(base)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("seed", "8"),
            ("dr-stages", "2"),
            ("scale-factor", "1.0"),
            ("adaptation-period", "50"),
            ("mode", "forkjoin"),
            ("workers", "4"),
            ("start", "1,1"),
        ],
    )
    def test_digest_tracks_trajectory_fields(self, key, value):
        assert spec_digest(self.spec(**{key: value})) != spec_digest(self.spec())

    @pytest.mark.parametrize("overrides,digest", [
        ({}, 3929224564147271028),
        ({"target": "himmelblau"}, 15658892970759694020),
        ({"target": "banana", "dim": "3"}, 6590354420261799539),
    ], ids=["mvn", "himmelblau", "banana"])
    def test_digest_is_pinned(self, overrides, digest):
        # a moved digest makes every existing snapshot unresumable
        assert spec_digest(build_spec({"out": "x", **overrides})) == digest

    def test_banana_echo_is_pinned(self):
        spec = self.spec(**{"target": "banana", "dim": "3",
                            "target-curvature": "0.25", "target-sigma1": "3"})
        assert ["%s = %s" % (k, v) for k, v, _ in spec_to_items(spec)] == [
            "target = banana",
            "dim = 3",
            "target-curvature = 0.25",
            "target-sigma1 = 3",
            "chain-len = 500",
            "start = 0,0,0",
            "seed = 7",
            "dr-stages = 1",
            "dr-scales = 0.5",
            "scale-factor = 1.3740936406713093",
            "adaptation-period = 100",
            "greedy-count = 4",
            "mode = serial",
            "chains = 1",
            "workers = 1",
            "out = run",
            "format = ascii",
            "delimiter = ,",
            "deterministic-test-mode = false",
        ]

    def test_digest_tracks_one_ulp_of_the_mvn_arrays(self):
        # the mvn mean and covariance enter the digest as their bytes
        cov = [2.0, 0.3, 0.3, 0.5]
        base = spec_digest(self.spec(**{"target-cov": "2,0.3,0.3,0.5"}))
        for i in range(4):
            nudged = list(cov)
            nudged[i] = float(np.nextafter(cov[i], np.inf))
            text = ",".join(repr(v) for v in nudged)
            assert spec_digest(self.spec(**{"target-cov": text})) != base
        nudged_mean = "0,%r" % float(np.nextafter(0.0, 1.0))
        assert spec_digest(self.spec(**{"target-mean": nudged_mean})) != spec_digest(
            self.spec()
        )

    def test_restart_compatibility(self):
        def check(spec, snap):
            check_restart_compatibility(spec, snap, spec_digest(spec))

        spec = self.spec()
        snap = {
            "spec_digest": spec_digest(spec),
            "chain_format": "ascii",
            "delimiter": ",",
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "trajectory_version": TRAJECTORY_VERSION,
        }
        check(spec, snap)  # must not raise
        with pytest.raises(SpecMismatch):
            check(self.spec(seed=9), snap)
        with pytest.raises(SpecMismatch, match="chain_format"):
            check(spec, dict(snap, chain_format="binary"))
        with pytest.raises(SpecMismatch, match="delimiter"):
            check(spec, dict(snap, delimiter=";"))
        for stale in (1, 2):
            with pytest.raises(
                SpecMismatch,
                match="format version %d differs .* %d"
                % (stale, SNAPSHOT_FORMAT_VERSION),
            ):
                check(spec, dict(snap, format_version=stale))
        older = dict(snap)
        del older["trajectory_version"]  # written before the field existed
        for stale in (older, dict(snap, trajectory_version=TRAJECTORY_VERSION + 1)):
            stored = stale.get("trajectory_version", 1)
            with pytest.raises(
                SpecMismatch,
                match="trajectory version %d .* %d" % (stored, TRAJECTORY_VERSION),
            ):
                check(spec, stale)


class TestParserCoverage:
    def subparser(self, name):
        parser = build_parser()
        actions = [a for a in parser._actions if hasattr(a, "choices")
                   and isinstance(a.choices, dict)]
        return actions[0].choices[name]

    def test_every_field_has_a_run_flag(self):
        run = self.subparser("run")
        flags = {s for a in run._actions for s in a.option_strings}
        for key in FIELD_DESCRIPTIONS:
            assert "--%s" % key in flags

    def test_subcommands_and_figures(self):
        parser = build_parser()
        actions = [a for a in parser._actions if hasattr(a, "choices")
                   and isinstance(a.choices, dict)]
        assert set(actions[0].choices) == {
            "run", "refine", "predict", "export-plotdata"
        }
        export = self.subparser("export-plotdata")
        figure = next(a for a in export._actions if a.dest == "figure")
        assert tuple(figure.choices) == FIGURES
        assert FIGURES == ("adaptation", "covariance", "contributions", "scaling")

    def test_modes_enumerated(self):
        assert MODES == ("serial", "multichain", "forkjoin")


def run_flags(out, **overrides):
    values = {
        "target": "mvn", "dim": "2", "chain-len": "400", "seed": "4",
        "out": str(out), "deterministic-test-mode": None,
    }
    values.update({k.replace("_", "-"): str(v) for k, v in overrides.items()})
    argv = ["run"]
    for key, value in values.items():
        if key == "deterministic-test-mode":
            argv.append("--deterministic-test-mode")
        else:
            argv.extend(["--%s" % key, value])
    return argv


class TestCliRun:
    def test_fresh_run_writes_suite(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        assert main(run_flags(prefix)) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("completed run under prefix")
        suite = OutputSuite(prefix=str(prefix))
        for path in suite.all_paths():
            assert os.path.exists(path)
            assert "wrote %s" % path in out
        chain = read_chain(suite.chain_path, ",")
        assert chain.n_rows == 400

    def test_fresh_run_creates_missing_directories(self, tmp_path, capsys):
        prefix = tmp_path / "a" / "b" / "demo"
        assert main(run_flags(prefix)) == EXIT_OK
        capsys.readouterr()
        suite = OutputSuite(prefix=str(prefix))
        for path in suite.all_paths():
            assert os.path.exists(path)

    def test_completed_run_refused_then_forced(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        assert main(run_flags(prefix)) == EXIT_OK
        capsys.readouterr()
        assert main(run_flags(prefix)) == EXIT_REFUSED
        assert "refused" in capsys.readouterr().err
        argv = run_flags(prefix) + ["--force-overwrite"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("completed run")

    @pytest.mark.parametrize("overrides", [
        {"mode": "serial"},
        {"mode": "multichain", "chains": "2"},
        {"mode": "forkjoin", "workers": "4", "format": "binary"},
    ], ids=["serial", "multichain", "forkjoin-binary"])
    def test_no_chain_long_enough_to_refine(self, tmp_path, capsys, overrides):
        # refinement refuses every 3-row chain; the run still ends cleanly,
        # its sample holding the header only
        prefix = tmp_path / "short"
        assert main(run_flags(prefix, chain_len="3", seed="1", **overrides)) == EXIT_OK
        assert "refined sample size: 0" in capsys.readouterr().out
        suite = OutputSuite(prefix=str(prefix))
        assert open(suite.sample_path, "rb").read() == (
            FORMAT_COMMENT + "\nSampleLogFunc,Var1,Var2\n").encode()
        report = open(suite.report_path, "rb").read().decode()
        assert "\nREFINEMENT\n\n  not performed\n" in report
        values = {"target": "mvn", "dim": "2", "chain-len": "3", "seed": "1",
                  "out": str(tmp_path / "lib"), **overrides}
        result = run_simulation(build_spec(values))
        assert result.refined.points.shape == (0, 2)
        assert all(r is None for r in result.per_chain_refined)

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(run_flags(tmp_path / "x", dim="0")) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # the output directory cannot be made under a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = run_flags(blocker / "run", chain_len="50")
        assert main(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime error:")
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == ""

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "base.cfg"
        cfg.write_text(
            "seed = 11\ndim = 1\ntarget-cov = 4\nchain-len = 120\n"
            "deterministic-test-mode = true\n"
        )
        prefix = tmp_path / "ov"
        argv = ["run", "--config", str(cfg), "--seed", "22",
                "--out", str(prefix)]
        assert main(argv) == EXIT_OK
        echo = parse_config_file("%s_report.txt" % prefix)
        assert echo["seed"] == "22"
        assert echo["dim"] == "1"
        assert echo["chain-len"] == "120"

    def test_report_echo_reproduces_spec(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        assert main(run_flags(prefix)) == EXIT_OK
        spec = build_spec(parse_config_file("%s_report.txt" % prefix))
        original = build_spec(dict(
            (k, v) for k, v in
            [("target", "mvn"), ("dim", "2"), ("chain-len", "400"),
             ("seed", "4"), ("out", str(prefix)),
             ("deterministic-test-mode", "true")]
        ))
        assert spec_digest(spec) == spec_digest(original)

    def test_report_as_config_file_reruns_the_run(self, tmp_path, capsys):
        first = tmp_path / "A"
        assert main(run_flags(first, dr_stages="2")) == EXIT_OK
        second = tmp_path / "B"
        argv = ["run", "--config", "%s_report.txt" % first, "--out", str(second)]
        assert main(argv) == EXIT_OK
        for suffix in ("_chain.txt", "_sample.txt"):
            assert pathlib.Path("%s%s" % (second, suffix)).read_bytes() == \
                pathlib.Path("%s%s" % (first, suffix)).read_bytes()

    @pytest.mark.parametrize("flags,key", [
        (["--dr-stages", "2", "--dr-scales", "0.7,0.9"], "dr-scales"),
        (["--scale-factor", "inf"], "scale-factor"),
        (["--seed", "-1"], "seed"),
        (["--start", "nan,nan"], "start"),
        (["--target", "himmelblau", "--start", "1e200,1e200"], "start"),
        (["--dr-scales", "0.5,0.7", "--dr-stages", "2"], "dr-scales"),
        (["--format", "xml"], "format"),
        (["--delimiter", "ab"], "delimiter"),
    ], ids=["increasing-dr-scales", "infinite-scale-factor", "negative-seed",
            "nan-start", "overflowing-start", "rising-dr-scales", "xml-format",
            "two-character-delimiter"])
    def test_bad_proposal_refused_before_any_file(self, tmp_path, capsys, flags, key):
        # no file, and no directory made for the prefix either
        argv = ["run", "--chain-len", "50", "--out", str(tmp_path / "new" / "run")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings too
            assert main(argv + flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: %s: " % key)
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bad_start_leaves_a_forced_suite_as_it_was(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        assert main(run_flags(prefix, target="himmelblau")) == EXIT_OK
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        argv = run_flags(prefix, target="himmelblau", start="1e200,1e200")
        assert main(argv + ["--force-overwrite"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: start: ")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("flags,message", [
        (["--target", "banana", "--target-sigma1", "nan"],
         "target-sigma1: must be finite, got nan"),
        (["--target", "banana", "--target-curvature", "inf"],
         "target-curvature: must be finite, got inf"),
        (["--target-mean", "0,-inf"], "target-mean: must be finite, got -inf"),
        (["--target", "himmelblau", "--target-scale", "-1"],
         "target-scale: scale must be positive, got -1"),
        (["--target", "banana", "--target-sigma1", "0"],
         "target-sigma1: sigma1 must be positive, got 0"),
        (["--target-cov", "1,2,2,1"], "target-cov: covariance is not positive definite"),
        (["--target", "mvn", "--target-scale", "3"],
         "target-scale: not a parameter of target mvn"),
        (["--target", "himmelblau", "--target-mean", "1,2"],
         "target-mean: not a parameter of target himmelblau"),
        (["--target", "himmelblau", "--target-cov", "1,0,0,1"],
         "target-cov: not a parameter of target himmelblau"),
        (["--target", "banana", "--target-mean", "1,2"],
         "target-mean: not a parameter of target banana"),
        (["--target", "banana", "--target-cov", "1,0,0,1"],
         "target-cov: not a parameter of target banana"),
        (["--target", "himmelblau", "--target-sigma1", "3"],
         "target-sigma1: not a parameter of target himmelblau"),
    ], ids=["nan-sigma1", "inf-curvature", "inf-mean", "negative-scale", "zero-sigma1",
            "indefinite-cov", "mvn-scale", "himmelblau-mean", "himmelblau-cov",
            "banana-mean", "banana-cov", "himmelblau-sigma1"])
    def test_bad_target_parameter_refused_by_key_before_any_file(
        self, tmp_path, capsys, flags, message
    ):
        argv = ["run", "--chain-len", "50", "--out", str(tmp_path / "run")]
        assert main(argv + flags) == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: %s\n" % message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("delimiter", ["-", ".", "+", "a", "E", "7", " ", "\t", "§"])
    def test_unreadable_delimiter_refused_before_any_file(
        self, tmp_path, capsys, delimiter
    ):
        # a number's own characters split its fields on reading, the
        # report's echo loses whitespace, and the reader reads latin-1
        argv = ["run", "--chain-len", "50", "--delimiter", delimiter,
                "--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: delimiter: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


def half_space_target(value):
    """Standard normal on R^2 whose log-density is ``value`` where x0 > 1.

    Evaluations are capped, so a chain that gets stuck on a non-finite state
    fails the test instead of running forever."""
    base = gaussian_target([0.0, 0.0], np.eye(2))
    calls = [0]

    def evaluate(x):
        calls[0] += 1
        if calls[0] > 200_000:
            raise RuntimeError("target evaluated 200000 times; chain is stuck")
        return value if x[0] > 1.0 else base.evaluate(x)

    return TargetDensity("mvn", 2, evaluate, preferred_start=np.zeros(2))


NON_FINITE_MODES = [
    {"mode": "serial", "dr_stages": "0"},
    {"mode": "serial", "dr_stages": "2"},
    {"mode": "forkjoin", "workers": "3", "dr_stages": "0"},
    {"mode": "forkjoin", "workers": "3", "dr_stages": "2"},
]
NON_FINITE_IDS = ["serial-dr0", "serial-dr2", "forkjoin-dr0", "forkjoin-dr2"]


class TestNonFiniteTarget:
    """A NaN log-density is outside the support; +inf ends the run with one
    runtime error line."""

    @pytest.mark.parametrize("overrides", NON_FINITE_MODES, ids=NON_FINITE_IDS)
    def test_nan_region_is_never_entered(
        self, tmp_path, monkeypatch, capsys, overrides
    ):
        monkeypatch.setattr(
            dramp.driver, "make_target", lambda spec: half_space_target(math.nan)
        )
        prefix = tmp_path / "nan"
        assert main(run_flags(prefix, **overrides)) == EXIT_OK
        capsys.readouterr()
        chain = read_chain(OutputSuite(prefix=str(prefix)).chain_path)
        assert chain.n_rows == 400
        assert np.all(chain.states[:, 0] <= 1.0)
        assert np.all(np.isfinite(chain.log_funcs))

    @pytest.mark.parametrize("overrides", NON_FINITE_MODES, ids=NON_FINITE_IDS)
    def test_plus_inf_is_a_runtime_error(
        self, tmp_path, monkeypatch, capsys, overrides
    ):
        monkeypatch.setattr(
            dramp.driver, "make_target", lambda spec: half_space_target(math.inf)
        )
        assert main(run_flags(tmp_path / "inf", **overrides)) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: target log-density is +inf at (")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestCliRefine:
    def test_refine_writes_sample(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        assert main(run_flags(prefix, chain_len="600")) == EXIT_OK
        capsys.readouterr()
        out_path = tmp_path / "again.txt"
        argv = ["refine", "%s_chain.txt" % prefix, str(out_path)]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "source verbose length:" in out
        assert "final kept count:" in out
        lines = out_path.read_text().splitlines()
        assert lines[1].startswith("SampleLogFunc,Var1,Var2")
        assert len(lines) > 2

    def test_missing_chain_is_config_error(self, tmp_path, capsys):
        argv = ["refine", str(tmp_path / "nope.txt"), str(tmp_path / "o.txt")]
        assert main(argv) == EXIT_CONFIG
        assert "IoFailure" in capsys.readouterr().err


class TestCliPredict:
    def test_half_rate_table_frozen(self, tmp_path, capsys):
        # 4 unique states over verbose length 8: the fitted rate is exactly 1/2
        chain = write_flat_chain(tmp_path / "half_chain.txt", (2, 2, 2, 2))
        assert main(["predict", chain, "--max-workers", "16"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "source: measured acceptance rate\n"
            "p-hat: 0.5\n"
            "P,PredictedSpeedup\n"
            "1,1\n"
            "2,1.5\n"
            "4,1.875\n"
            "8,1.9921875\n"
            "16,1.999969482421875\n"
            "recommended workers: 5\n"
        )

    def test_seed_row_only_chain_rejected(self, tmp_path, capsys):
        chain = write_flat_chain(tmp_path / "one_chain.txt", (5,))
        assert main(["predict", chain]) == EXIT_CONFIG
        assert "no accepted moves" in capsys.readouterr().err

    def test_bad_max_workers(self, tmp_path, capsys):
        chain = write_flat_chain(tmp_path / "half_chain.txt", (2, 2))
        assert main(["predict", chain, "--max-workers", "0"]) == EXIT_CONFIG

    def test_forkjoin_worker_count_comes_from_the_report(self, tmp_path, capsys):
        # the top ranks of 64 never win here: the largest process id is 6,
        # so a count guessed from the ids would fit a different p-hat
        prefix = tmp_path / "fj64"
        assert main(["run", "--mode", "forkjoin", "--workers", "64",
                     "--chain-len", "400", "--seed", "3", "--out", str(prefix),
                     "--deterministic-test-mode"]) == EXIT_OK
        chain = "%s_chain.txt" % prefix
        assert read_chain(chain).process_ids.max() < 64
        report = pathlib.Path("%s_report.txt" % prefix).read_text()
        fitted = report.split("fitted acceptance prob   : ")[1].split("\n")[0]
        capsys.readouterr()
        assert main(["predict", chain, "--max-workers", "64"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "source: worker contribution tally (64 workers)"
        assert out[1] == "p-hat: %s" % fitted
        assert "64,%s" % report.split("    P     64 -> ")[1].split("\n")[0] in out
        csv = tmp_path / "s.csv"
        assert main(["export-plotdata", str(prefix), "scaling", str(csv)]) == EXIT_OK
        rows = {l.split(",")[0]: l.split(",") for l in csv.read_text().splitlines()}
        assert rows["64"][2] != "" and rows["32"][2] == ""
        # without its report the same chain is read as a bare chain file
        bare = tmp_path / "bare.txt"
        bare.write_bytes(pathlib.Path(chain).read_bytes())
        capsys.readouterr()
        assert main(["predict", str(bare)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("source: measured acceptance rate\n")


@pytest.fixture(scope="module")
def forkjoin_run(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("fj") / "fj"
    argv = [
        "run", "--target", "himmelblau", "--dim", "2", "--mode", "forkjoin",
        "--workers", "4", "--chain-len", "400", "--seed", "9",
        "--out", str(prefix), "--deterministic-test-mode",
    ]
    assert main(argv) == EXIT_OK
    return prefix


class TestCliExport:
    def export(self, prefix, figure, out_csv):
        code = main(["export-plotdata", str(prefix), figure, str(out_csv)])
        assert code == EXIT_OK
        return pathlib.Path(out_csv).read_text().splitlines()

    def test_adaptation_extract(self, forkjoin_run, tmp_path, capsys):
        lines = self.export(forkjoin_run, "adaptation", tmp_path / "a.csv")
        assert lines[0] == "VerboseIndex,Measure"
        assert len(lines) > 1
        for line in lines[1:]:
            index, measure = line.split(",")
            assert int(index) > 0
            assert 0.0 < float(measure) <= 1.0

    def test_covariance_extract(self, forkjoin_run, tmp_path, capsys):
        lines = self.export(forkjoin_run, "covariance", tmp_path / "c.csv")
        assert lines[0] == "AdaptationIndex,Row,Col,Value"
        body = [line.split(",") for line in lines[1:]]
        n_adapt = max(int(row[0]) for row in body)
        # one full 2x2 matrix per adaptation
        assert len(body) == 4 * n_adapt
        first = np.array(
            [float(row[3]) for row in body if row[0] == "1"]
        ).reshape(2, 2)
        assert np.allclose(first, first.T)
        assert np.all(np.linalg.eigvalsh(first) > 0)

    @pytest.mark.parametrize("stop", [None, 350], ids=["clean", "resumed"])
    @pytest.mark.parametrize("overrides", [
        {"dr-stages": "2"},
        {"mode": "multichain", "chains": "3"},
        {"mode": "forkjoin", "workers": "4"},
    ], ids=["serial-dr2", "multichain", "forkjoin"])
    def test_covariance_csv_holds_the_matrices_the_run_adapted_to(
        self, tmp_path, monkeypatch, capsys, overrides, stop
    ):
        values = {"out": str(tmp_path / "run"), "chain-len": "600", "seed": "4",
                  "adaptation-period": "40", "deterministic-test-mode": "true"}
        spec = build_spec(dict(values, **overrides))
        adapted = []
        real_adapt = dramp.kernel.adapt

        def capture(state, cov, chain_length, measured=True):
            new_state, record = real_adapt(state, cov, chain_length, measured)
            # a resume rebuilds its last proposal unmeasured; that is no
            # adaptation of the run
            if measured:
                adapted.append((record, new_state.covariance))
            return new_state, record

        with monkeypatch.context() as patched:
            patched.setattr(dramp.kernel, "adapt", capture)
            if stop is not None:
                run_to_interrupt(spec, stop)
            assert run_simulation(spec).restarted is (stop is not None)
        # 15 boundaries per chain, and the first chain's come first
        assert len(adapted) == 15 * spec.n_chains
        adapted = adapted[:15]

        lines = self.export(spec.output.prefix, "covariance", tmp_path / "c.csv")
        exported = np.array([float(line.split(",")[3]) for line in lines[1:]])
        assert np.array_equal(
            exported, np.concatenate([cov.ravel() for _, cov in adapted])
        )

        # each measure is the one the run stamped on the row after its boundary
        chain = read_chain(spec.output.chain_path).slice(0, 600)
        kern = dramp.driver._make_kernel(
            spec, dramp.config.make_target(spec), 0, chain=chain
        )
        replayed = [record for record, _ in kern.adaptations()]
        assert replayed == [record for record, _ in adapted]
        for record in replayed[:-1]:
            stamped = chain.adaptation_measures[record.at_chain_length]
            assert record.measure.hex() == float(stamped).hex()

    def test_covariance_export_evaluates_no_target(
        self, forkjoin_run, tmp_path, monkeypatch, capsys
    ):
        want = tmp_path / "want.csv"
        self.export(forkjoin_run, "covariance", want)
        real_target = dramp.config.make_builtin_target

        def refuse(point):
            raise AssertionError("the covariance export evaluated the target")

        def target_that_refuses(target_spec):
            return dataclasses.replace(real_target(target_spec), evaluate=refuse)

        monkeypatch.setattr(dramp.config, "make_builtin_target", target_that_refuses)
        got = tmp_path / "got.csv"
        self.export(forkjoin_run, "covariance", got)
        assert got.read_bytes() == want.read_bytes()

    def test_contributions_rows_match_worker_count(
        self, forkjoin_run, tmp_path, capsys
    ):
        lines = self.export(forkjoin_run, "contributions", tmp_path / "w.csv")
        assert lines[0] == "Rank,Count,FittedProbability"
        assert len(lines) == 1 + 4
        fitted = {line.split(",")[2] for line in lines[1:]}
        assert len(fitted) == 1
        assert 0.0 < float(fitted.pop()) <= 1.0

    def test_scaling_grid(self, forkjoin_run, tmp_path, capsys):
        lines = self.export(forkjoin_run, "scaling", tmp_path / "s.csv")
        assert lines[0] == "P,PredictedSpeedup,ObservedSpeedup"
        assert len(lines) == 1 + len(PREDICTION_GRID)
        rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert sorted(rows) == list(PREDICTION_GRID)
        assert rows[1][1] == "1"
        # observed speedup is filled in only at the worker count that ran
        observed = [p for p, row in rows.items() if row[2] != ""]
        assert observed == [4]

    def test_contributions_refused_for_serial(self, tmp_path, capsys):
        prefix = tmp_path / "ser"
        assert main(run_flags(prefix)) == EXIT_OK
        capsys.readouterr()
        code = main(
            ["export-plotdata", str(prefix), "contributions",
             str(tmp_path / "w.csv")]
        )
        assert code == EXIT_CONFIG
        assert "forkjoin" in capsys.readouterr().err

    def test_missing_run_is_config_error(self, tmp_path, capsys):
        code = main(
            ["export-plotdata", str(tmp_path / "ghost"), "scaling",
             str(tmp_path / "s.csv")]
        )
        assert code == EXIT_CONFIG


SUITE_FILES = (
    "run_sample.txt",
    "run_report.txt",
    "run_progress.txt",
    "run_restart.bin",
)


def assert_suites_identical(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    chains = [n for n in names if n in ("run_chain.txt", "run_chain.bin")]
    assert len(chains) == 1 and set(SUITE_FILES) <= set(names)
    for name in names:
        a = (dir_a / name).read_bytes()
        b = (dir_b / name).read_bytes()
        assert a == b, "%s differs between runs" % name


class TestResume:
    """Interrupted runs picked up through the public entry points.

    Both runs use the relative prefix "run" from different working
    directories so every output file, report echo included, is
    byte-comparable.
    """

    def spec_here(self, **overrides):
        values = {"out": "run", "chain-len": "600", "seed": "4",
                  "deterministic-test-mode": "true"}
        values.update({k: str(v) for k, v in overrides.items()})
        return build_spec(values)

    def check_resume(self, tmp_path, monkeypatch, capsys, overrides, stop):
        """Stop a run after ``stop`` finalized rows, in its report when
        ``stop`` is "finish", or at chain 2's first snapshot when it is
        "chain-2-start", resume it through ``dramp run`` and compare the
        suite with an uninterrupted one."""
        clean = tmp_path / "clean"
        clean.mkdir()
        monkeypatch.chdir(clean)
        result = run_simulation(self.spec_here(**overrides))
        assert result.restarted is False

        broken = tmp_path / "broken"
        broken.mkdir()
        monkeypatch.chdir(broken)
        if stop == "finish":
            def refuse(*args, **kwargs):
                raise Interrupt()

            with monkeypatch.context() as patched:
                patched.setattr(dramp.driver, "write_report", refuse)
                with pytest.raises(Interrupt):
                    run_simulation(self.spec_here(**overrides))
        elif stop == "chain-2-start":
            def refuse_chain_2(path, payload):
                kernel = payload["kernel"]
                if kernel and kernel["live_row"]["process_id"] == 2:
                    raise Interrupt()
                write_snapshot(path, payload)

            with monkeypatch.context() as patched:
                patched.setattr(dramp.driver, "write_snapshot", refuse_chain_2)
                with pytest.raises(Interrupt):
                    run_simulation(self.spec_here(**overrides))
        else:
            run_to_interrupt(self.spec_here(**overrides), stop)
        argv = ["run", "--out", "run", "--chain-len", "600", "--seed", "4",
                "--deterministic-test-mode"]
        for key, value in overrides.items():
            argv += ["--" + key, str(value)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("resumed run under prefix")
        assert_suites_identical(clean, broken)

    def test_interrupted_run_resumes_to_identical_bytes(
        self, tmp_path, monkeypatch, capsys
    ):
        self.check_resume(tmp_path, monkeypatch, capsys, {}, 350)

    # each chain of 600 rows finalizes 599 of them while it runs, so 949
    # stops the second chain of a multichain run at its 350th
    @pytest.mark.parametrize("overrides,stop", [
        ({"mode": "serial"}, 350),
        ({"mode": "multichain", "chains": "2"}, 350),
        ({"mode": "multichain", "chains": "2"}, 949),
        ({"mode": "forkjoin", "workers": "4"}, 350),
        ({"mode": "serial"}, "finish"),
        ({"mode": "multichain", "chains": "2"}, "finish"),
        ({"mode": "forkjoin", "workers": "4"}, "finish"),
    ], ids=["serial", "multichain-chain1", "multichain-chain2", "forkjoin",
            "serial-finish", "multichain-finish", "forkjoin-finish"])
    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_every_mode_resumes_to_identical_bytes(
        self, tmp_path, monkeypatch, capsys, overrides, stop, fmt
    ):
        self.check_resume(
            tmp_path, monkeypatch, capsys, {**overrides, "format": fmt}, stop
        )

    @pytest.mark.parametrize("overrides", [
        {"mode": "serial", "dr-stages": "2"},
        {"mode": "multichain", "chains": "2"},
        {"mode": "forkjoin", "workers": "4", "format": "binary"},
    ], ids=["serial-dr2", "multichain", "forkjoin"])
    def test_a_kill_inside_a_block_resumes_to_identical_bytes(
        self, tmp_path, monkeypatch, capsys, overrides
    ):
        # the kill falls at a stage's target evaluation, inside a block of
        # draws, and the snapshot the resume starts from has taken part of
        # its block: the resume draws that block again and skips the rows
        # already taken
        clean, broken = tmp_path / "clean", tmp_path / "broken"
        clean.mkdir()
        broken.mkdir()
        monkeypatch.chdir(clean)
        run_simulation(self.spec_here(**overrides))
        monkeypatch.chdir(broken)

        def killing(spec):
            target, calls = dramp.config.make_target(spec), [0]

            def evaluate(x):
                calls[0] += 1
                if calls[0] == 1000:
                    raise Interrupt()
                return target.evaluate(x)

            return dataclasses.replace(target, evaluate=evaluate)

        with monkeypatch.context() as patched:
            patched.setattr(dramp.driver, "make_target", killing)
            with pytest.raises(Interrupt):
                run_simulation(self.spec_here(**overrides))
        snap = read_snapshot("run_restart.bin")
        assert snap["rows_written"] > 0
        assert 0 < snap["kernel"]["block_offset"] < BLOCK
        argv = ["run", "--out", "run", "--chain-len", "600", "--seed", "4",
                "--deterministic-test-mode"]
        for key, value in overrides.items():
            argv += ["--" + key, value]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("resumed run under prefix")
        assert_suites_identical(clean, broken)

    def test_kill_before_the_next_chains_first_snapshot_resumes_to_identical_bytes(
        self, tmp_path, monkeypatch, capsys
    ):
        # chain 1 has ended and its rows are on disk, but chain 2's first
        # snapshot never lands: the resume runs chain 1's tail again from
        # its last snapshot, then chains 2 and 3
        self.check_resume(tmp_path, monkeypatch, capsys,
                          {"mode": "multichain", "chains": "3"}, "chain-2-start")

    def test_trajectory_field_change_refused_after_interrupt(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        run_to_interrupt(self.spec_here(), 200)
        argv = ["run", "--out", "run", "--chain-len", "600", "--seed", "5",
                "--deterministic-test-mode"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "trajectory-determining" in err

    def test_chain_length_extension_resumes(self, tmp_path, monkeypatch):
        # the length target is bookkeeping, not trajectory: a resume may
        # extend it, and the result matches a clean run at the longer length
        clean = tmp_path / "clean"
        clean.mkdir()
        monkeypatch.chdir(clean)
        run_simulation(self.spec_here(**{"chain-len": "1200"}))

        extended = tmp_path / "extended"
        extended.mkdir()
        monkeypatch.chdir(extended)
        run_to_interrupt(self.spec_here(**{"chain-len": "600"}), 350)
        result = run_simulation(self.spec_here(**{"chain-len": "1200"}))
        assert result.restarted is True
        assert result.summaries[0].chain.n_rows == 1200
        assert_suites_identical(clean, extended)

    def test_format_flip_refused_after_interrupt(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_to_interrupt(self.spec_here(), 200)
        with pytest.raises(SpecMismatch, match="chain_format"):
            run_simulation(self.spec_here(format="binary"))

    @pytest.mark.parametrize("overrides", [
        {"mode": "serial"},
        {"mode": "multichain", "chains": "2"},
        {"mode": "forkjoin", "workers": "2"},
    ], ids=["serial", "multichain", "forkjoin"])
    def test_snapshot_offsets_are_on_disk_when_it_lands(
        self, tmp_path, monkeypatch, overrides
    ):
        # a SIGKILL right after a snapshot resumes from it only if the files
        # already hold every byte its offsets count
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(**overrides)
        checked = []

        def check(event):
            if event[0] != "adapt":
                return
            snap = read_snapshot(spec.output.restart_path)
            for path, key in ((spec.output.chain_path, "chain_offset"),
                              (spec.output.progress_path, "progress_offset")):
                size = os.path.getsize(path)
                assert size >= snap[key], (
                    "%s holds %d bytes, snapshot counts %d"
                    % (path, size, snap[key])
                )
            checked.append(event[1].at_chain_length)

        run_simulation(spec, on_event=check)
        assert len(checked) >= 6

    @pytest.mark.parametrize("overrides", [
        {"mode": "serial"},
        {"mode": "forkjoin", "workers": "64"},
    ], ids=["serial", "forkjoin"])
    def test_interrupt_after_a_step_that_adapts_and_ticks(
        self, tmp_path, monkeypatch, overrides
    ):
        # the adaptation's snapshot holds the state after the whole step, so
        # it must also count the tick line that step wrote. On a flat target
        # every stage-0 proposal accepts, so the step that ticks at verbose
        # length 1000 writes row 1000 and adapts under the default period of
        # 100 rows
        def spec():
            return self.spec_here(**{"chain-len": "1500", **overrides})

        monkeypatch.setattr(
            dramp.driver, "make_target",
            lambda spec: TargetDensity(
                "flat", spec.target_spec.dimension, lambda x: 0.0
            ),
        )

        steps = []
        commit = Kernel.commit

        def recording_commit(kern, outcome):
            events = commit(kern, outcome)
            if {"adapt", "tick"} <= {e[0] for e in events}:
                steps.append(kern.chain.verbose_length)
            return events

        clean = tmp_path / "clean"
        clean.mkdir()
        monkeypatch.chdir(clean)
        with monkeypatch.context() as patched:
            patched.setattr(Kernel, "commit", recording_commit)
            run_simulation(spec())
        assert steps and steps[0] == 1000

        def bomb(event):
            if event[0] == "tick" and event[1]["verbose_length"] == steps[0]:
                raise Interrupt()

        broken = tmp_path / "broken"
        broken.mkdir()
        monkeypatch.chdir(broken)
        with pytest.raises(Interrupt):
            run_simulation(spec(), on_event=bomb)
        assert run_simulation(spec()).restarted is True
        assert_suites_identical(clean, broken)

    def test_snapshot_from_an_older_trajectory_refused_untouched(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(mode="forkjoin", workers="4")
        run_to_interrupt(spec, 350)
        snap = read_snapshot(spec.output.restart_path)
        assert snap["trajectory_version"] == TRAJECTORY_VERSION
        argv = ["run", "--out", "run", "--chain-len", "600", "--seed", "4",
                "--mode", "forkjoin", "--workers", "4",
                "--deterministic-test-mode"]
        # 1 is a snapshot written before the field existed
        for stale in (1, 2, 3, 5):
            older = dict(snap, trajectory_version=stale)
            if stale == 1:
                del older["trajectory_version"]
            write_snapshot(spec.output.restart_path, older)
            before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and err.count("\n") == 1
            assert "trajectory version %d differs from this build's %d" % (
                stale, TRAJECTORY_VERSION) in err
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("overrides", [
        {"mode": "serial"},
        {"mode": "multichain", "chains": "2"},
        {"mode": "forkjoin", "workers": "4"},
    ], ids=["serial", "multichain", "forkjoin"])
    def test_resume_reads_the_snapshot_once(self, tmp_path, monkeypatch, overrides):
        # detect_incomplete hands the snapshot it checked to the resume
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(**overrides)
        run_to_interrupt(spec, 350)
        reads = []
        read = dramp.persist.read_snapshot

        def counting_read(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(dramp.persist, "read_snapshot", counting_read)
        monkeypatch.setattr(dramp.driver, "read_snapshot", counting_read)
        assert run_simulation(spec).restarted is True
        assert reads == [spec.output.restart_path]

    @staticmethod
    def version_3_kernel(kernel):
        """The kernel block of a version-3 snapshot: the stream's state
        flattened into five fields, and the live row's state an array."""
        stream = kernel["stream"]
        flat = {"bit_generator": stream["bit_generator"],
                "state": stream["state"]["state"], "inc": stream["state"]["inc"],
                "has_uint32": stream["has_uint32"], "uinteger": stream["uinteger"]}
        live_row = kernel["live_row"]
        return dict(kernel, stream=flat,
                    live_row=dict(live_row, state=np.array(live_row["state"])))

    def version_2_kernel(self, spec, snap, chain_index):
        """The kernel block of a version-2 snapshot: the adaptation count,
        and the stream's kind, seed and chain index around its state."""
        kernel = self.version_3_kernel(snap["kernel"])
        n_rows = read_chain(spec.output.chain_path, spec.output.delimiter,
                            size=snap["chain_offset"]).n_rows + 1
        count = dramp.kernel.adaptation_count(
            n_rows, spec.target_spec.dimension, spec.kernel.adaptation_period)
        stream = {"kind": "serial", "seed": spec.kernel.rng_seed,
                  "chain_index": chain_index, "generator": kernel["stream"]}
        return dict(kernel, stream=stream, adaptation_count=count)

    def refused_untouched(self, tmp_path, capsys, spec, argv, older, version):
        if version < 4:
            # the layouts before version 4 also held the mode, the chain
            # count and the worker count, and wrote floats and arrays as hex
            older = hex_encoded(dict(older, mode=spec.mode, n_chains=spec.n_chains,
                                     worker_count=spec.worker_count))
        write_snapshot("run_restart.bin", older)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(["run", "--out", "run", "--chain-len", "600", "--seed", "4",
                     "--deterministic-test-mode"] + argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "snapshot format version %d differs from this build's %d" % (
            version, SNAPSHOT_FORMAT_VERSION) in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_format_1_snapshot_refused_untouched(
        self, tmp_path, monkeypatch, capsys
    ):
        # a snapshot in the version-1 layout: the version-2 kernel block
        # plus the proposal, and a digest of the rendered mvn arrays
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here()
        run_to_interrupt(spec, 350)
        snap = read_snapshot(spec.output.restart_path)
        assert snap["format_version"] == SNAPSHOT_FORMAT_VERSION == 5
        lines = ["%s=%s" % (key, value) for key, value, _ in spec_to_items(spec)
                 if key not in DIGEST_EXCLUDED]
        rendered = hashlib.sha256("\n".join(lines).encode("utf-8")).digest()
        d = spec.target_spec.dimension
        kernel = self.version_2_kernel(spec, snap, 0)
        kernel["proposal"] = {
            "dimension": d,
            "covariance": np.eye(d),
            "scale_factor": spec.scale_factor,
            "dr_scales": list(spec.dr_scales),
            "adaptation_count": kernel.pop("adaptation_count"),
        }
        older = dict(snap, format_version=1, kernel=kernel,
                     spec_digest=int.from_bytes(rendered[:8], "big"))
        self.refused_untouched(tmp_path, capsys, spec, [], older, 1)

    def test_format_2_snapshot_refused_untouched(
        self, tmp_path, monkeypatch, capsys
    ):
        # a snapshot in the version-2 layout, taken in chain 2 of 2: the
        # adaptation count and the stream's identity in the kernel block,
        # and the multichain bookkeeping beside it
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(mode="multichain", chains="2")
        run_to_interrupt(spec, 949)
        snap = read_snapshot(spec.output.restart_path)
        first = read_chain(spec.output.chain_path).slice(0, 600)
        older = dict(
            snap, format_version=2, kernel=self.version_2_kernel(spec, snap, 1),
            chain_index=1, completed_rows=[600],
            completed_meta=[{"adaptation_count": dramp.kernel.adaptation_count(
                first.n_rows, spec.target_spec.dimension,
                spec.kernel.adaptation_period)}],
        )
        self.refused_untouched(tmp_path, capsys, spec,
                               ["--mode", "multichain", "--chains", "2"], older, 2)

    def test_format_3_snapshot_refused_untouched(
        self, tmp_path, monkeypatch, capsys
    ):
        # a snapshot in the version-3 layout: the stream flattened, the
        # header's mode, chain count and worker count, hex floats and arrays
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here()
        run_to_interrupt(spec, 350)
        snap = read_snapshot(spec.output.restart_path)
        older = dict(snap, format_version=3,
                     kernel=self.version_3_kernel(snap["kernel"]))
        self.refused_untouched(tmp_path, capsys, spec, [], older, 3)

    def test_format_4_snapshot_refused_untouched(
        self, tmp_path, monkeypatch, capsys
    ):
        # a snapshot in the version-4 layout: the stream's current state,
        # with no block offset
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here()
        run_to_interrupt(spec, 350)
        snap = read_snapshot(spec.output.restart_path)
        kernel = dict(snap["kernel"])
        del kernel["block_offset"]
        older = dict(snap, format_version=4, kernel=kernel)
        self.refused_untouched(tmp_path, capsys, spec, [], older, 4)

    def multichain_payloads(self, tmp_path, monkeypatch):
        """Every snapshot payload of a clean run of 3 chains, in order."""
        monkeypatch.chdir(tmp_path)
        payloads = []
        write = dramp.driver.write_snapshot

        def recording_write(path, payload):
            payloads.append(payload)
            write(path, payload)

        monkeypatch.setattr(dramp.driver, "write_snapshot", recording_write)
        run_simulation(self.spec_here(mode="multichain", chains="3"))
        return payloads

    def test_snapshots_hold_no_multichain_bookkeeping(self, tmp_path, monkeypatch):
        # which chain a row belongs to, and how often a completed chain
        # adapted, are read off the rows on resume; the digest pins the
        # mode, the chain count and the worker count
        for payload in self.multichain_payloads(tmp_path, monkeypatch):
            assert set(payload) == {
                "format_version", "trajectory_version", "spec_digest",
                "chain_format", "delimiter", "rows_written", "chain_offset",
                "progress_offset", "kernel"}
            assert set(payload["kernel"]) == {"stream", "block_offset",
                                              "pending_measure", "live_row"}

    def test_every_multichain_snapshot_holds_a_kernel(self, tmp_path, monkeypatch):
        # no snapshot falls between two chains: each chain's first is taken
        # when its kernel is built, before it has finalized a row
        payloads = self.multichain_payloads(tmp_path, monkeypatch)
        assert all(p["kernel"] is not None for p in payloads)
        chains = [p["kernel"]["live_row"]["process_id"] for p in payloads]
        assert chains == sorted(chains) and set(chains) == {1, 2, 3}
        firsts = [payloads[chains.index(c)]["rows_written"] for c in (1, 2, 3)]
        assert firsts == [0, 600, 1200]

    # rows 0-599 are chain 1, row 700 is among chain 2's finalized rows
    @pytest.mark.parametrize("rows,process_id", [
        ([100], 2), ([100], 3), ([599], 3), ([700], 1), ([700], 3),
        (range(600), 5), ("live", 1),
    ], ids=["row100-id2", "row100-id3", "row599-id3", "row700-id1",
            "row700-id3", "chain1-id5", "live-id1"])
    def test_process_ids_that_do_not_split_refused_untouched(
        self, tmp_path, monkeypatch, rows, process_id
    ):
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(mode="multichain", chains="2", format="binary")
        run_to_interrupt(spec, 949)
        path = pathlib.Path(spec.output.chain_path)
        if rows == "live":
            snap = read_snapshot(spec.output.restart_path)
            snap["kernel"]["live_row"]["process_id"] = process_id
            write_snapshot(spec.output.restart_path, snap)
        else:
            raw = bytearray(path.read_bytes())
            names = struct.unpack_from("<III", raw, len(CHAIN_MAGIC))[2]
            size = struct.calcsize("<IIddQQd") + 8 * spec.target_spec.dimension
            for row in rows:
                offset = len(CHAIN_MAGIC) + 12 + names + row * size
                struct.pack_into("<I", raw, offset, process_id)
            path.write_bytes(bytes(raw))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(CorruptRestart, match="process ids run"):
            run_simulation(spec)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("overrides", [
        {"mode": "serial"},
        {"mode": "multichain", "chains": "2"},
        {"mode": "forkjoin", "workers": "8"},
    ], ids=["serial", "multichain", "forkjoin"])
    def test_resumed_chain_has_room_for_its_next_rows(
        self, tmp_path, monkeypatch, overrides
    ):
        # the rebuilt chain holds the live row and the rows after it
        # without reallocating its columns
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(**overrides)
        run_to_interrupt(spec, 950 if overrides["mode"] == "multichain" else 350)
        grows = []
        counting = [False]
        grow = CompactChain._grow
        load_state = Kernel.load_state

        def counting_grow(chain):
            if counting[0]:
                grows.append(chain.n_rows)
            grow(chain)

        def counting_load_state(kern, state):
            counting[0] = True
            load_state(kern, state)

        monkeypatch.setattr(CompactChain, "_grow", counting_grow)
        monkeypatch.setattr(Kernel, "load_state", counting_load_state)
        with pytest.raises(Interrupt):
            run_simulation(spec, on_event=interrupt_after(1))
        assert counting[0] and grows == []

    # 1200-row chains also snapshot between adaptations, at written row
    # 1000; so does the second 600-row multichain chain. At d = 8 with a
    # period of 4 the boundaries at 4 and 8 rows adapt nothing. Every spec
    # passes from greedy to full adaptations.
    @pytest.mark.parametrize("overrides,stop", [
        ({"mode": "serial", "dr-stages": "0", "chain-len": "1200"}, None),
        ({"mode": "serial", "dr-stages": "2", "chain-len": "1200"}, None),
        ({"mode": "multichain", "chains": "2"}, 949),
        ({"mode": "forkjoin", "workers": "8", "chain-len": "1200"}, None),
        ({"mode": "serial", "dim": "8", "adaptation-period": "4",
          "dr-stages": "0", "chain-len": "1100", "format": "binary"}, None),
    ], ids=["serial-dr0", "serial-dr2", "multichain-chain2", "forkjoin-p8",
            "serial-noop-boundaries"])
    def test_rebuilt_accumulators_match_the_running_ones_at_every_snapshot(
        self, tmp_path, monkeypatch, overrides, stop
    ):
        # a kernel rebuilt from the files and the snapshot, as a resume
        # rebuilds it, holds the running kernel's moments and proposal bit
        # for bit, and rebuilds the proposal with at most one adaptation
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(**overrides)
        running = []
        state_dict = Kernel.state_dict

        def recording_state_dict(kern):
            running.append(kern)
            return state_dict(kern)

        adapt = dramp.kernel.adapt
        adapts = [0]

        def counting_adapt(*args, **kwargs):
            adapts[0] += 1
            return adapt(*args, **kwargs)

        write = dramp.driver.write_snapshot
        checked = []

        def checking_write(path, payload):
            write(path, payload)
            stored = read_chain(spec.output.chain_path, spec.output.delimiter,
                                size=payload["chain_offset"])
            # the split a resume derives from the rows and the live row
            edges = [0]
            if spec.mode == "multichain":
                edges = dramp.driver._split_chains(spec, stored, payload)
            index = len(edges) - 1
            kern = running[-1]
            assert index == kern.chain_index
            prefix = stored.tail(edges[-1])
            rebuilt = dramp.driver._make_kernel(spec, kern.target, index, chain=prefix)
            adapts[0] = 0
            rebuilt.load_state(read_snapshot(path)["kernel"])
            assert adapts[0] <= 1
            for field in ("total_weight", "mean", "m2"):
                assert np.array_equal(getattr(rebuilt._moments, field),
                                      getattr(kern._moments, field))
            assert rebuilt._run_max == kern._run_max
            assert rebuilt._burnin == kern._burnin
            for field in ("covariance", "chol_factor"):
                assert np.array_equal(getattr(rebuilt.proposal, field),
                                      getattr(kern.proposal, field))
            count = dramp.kernel.adaptation_count(
                kern.chain.n_rows, kern.chain.dimension, kern._period)
            assert rebuilt._pending_measure == kern._pending_measure
            checked.append((index, kern.chain.n_rows, kern._period, count))

        monkeypatch.setattr(Kernel, "state_dict", recording_state_dict)
        monkeypatch.setattr(dramp.kernel, "adapt", counting_adapt)
        monkeypatch.setattr(dramp.driver, "write_snapshot", checking_write)
        if stop is None:
            run_simulation(spec)
        else:
            run_to_interrupt(spec, stop)
            assert run_simulation(spec).restarted is True
        # a snapshot between two folds, and for multichain in chain 2
        assert any(n > period and n % period for _, n, period, _ in checked)
        if stop is not None:
            # chain 2's first snapshot, taken when its kernel is built,
            # splits off all of chain 1 and none of chain 2
            assert (1, 1) in [(index, n) for index, n, _, _ in checked]
        # past the greedy adaptations, and past boundaries that adapted nothing
        greedy = spec.kernel.greedy_adaptation_count
        assert any(count > greedy for _, _, _, count in checked)
        if spec.kernel.adaptation_period <= spec.target_spec.dimension:
            assert any(n >= period and count == 0 for _, n, period, count in checked)

    @pytest.mark.parametrize("overrides", [
        {"mode": "serial"},
        {"mode": "multichain", "chains": "2"},
        {"mode": "forkjoin", "workers": "4"},
    ], ids=["serial", "multichain", "forkjoin"])
    def test_stop_before_the_first_snapshot_reruns_fresh(
        self, tmp_path, monkeypatch, overrides
    ):
        clean = tmp_path / "clean"
        clean.mkdir()
        monkeypatch.chdir(clean)
        run_simulation(self.spec_here(**overrides))

        def refuse(path, payload):
            raise Interrupt()

        broken = tmp_path / "broken"
        broken.mkdir()
        monkeypatch.chdir(broken)
        with monkeypatch.context() as patched:
            patched.setattr(dramp.driver, "write_snapshot", refuse)
            with pytest.raises(Interrupt):
                run_simulation(self.spec_here(**overrides))
        assert sorted(p.name for p in broken.iterdir()) == [
            "run_chain.txt", "run_progress.txt"]
        assert run_simulation(self.spec_here(**overrides)).restarted is False
        assert_suites_identical(clean, broken)

    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    @pytest.mark.parametrize("which", ["chain", "progress"])
    def test_file_shorter_than_snapshot_refused_untouched(
        self, tmp_path, monkeypatch, capsys, which, fmt
    ):
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(format=fmt)
        run_to_interrupt(spec, 350)
        snap = read_snapshot(spec.output.restart_path)
        path = getattr(spec.output, which + "_path")
        os.truncate(path, int(snap[which + "_offset"]) // 2)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        argv = ["run", "--out", "run", "--chain-len", "600", "--seed", "4",
                "--format", fmt, "--deterministic-test-mode"]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and err.count("\n") == 1
        assert path in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_damaged_chain_row_refused_untouched(
        self, tmp_path, monkeypatch, capsys, fmt
    ):
        # row 10 of the resumable prefix no longer decodes: a letter in an
        # integer column (ascii), a zero weight (binary)
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(format=fmt)
        run_to_interrupt(spec, 350)
        path = pathlib.Path(spec.output.chain_path)
        raw = bytearray(path.read_bytes())
        if fmt == "ascii":
            lines = raw.split(b"\n")
            header = next(i for i, ln in enumerate(lines)
                          if ln and not ln.startswith(b"#"))
            lines[header + 11][:1] = b"x"
            raw = bytearray(b"\n".join(lines))
        else:
            name_len = struct.unpack_from("<III", raw, len(CHAIN_MAGIC))[2]
            record = struct.calcsize("<IIddQQd" + "d" * 2)
            weight_at = len(CHAIN_MAGIC) + 12 + name_len + 10 * record + 32
            struct.pack_into("<Q", raw, weight_at, 0)
        path.write_bytes(bytes(raw))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        argv = ["run", "--out", "run", "--chain-len", "600", "--seed", "4",
                "--format", fmt, "--deterministic-test-mode"]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and err.count("\n") == 1
        assert "chain row 10" in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_weight_past_int64_refused_untouched(
        self, tmp_path, monkeypatch, capsys, fmt
    ):
        # row 10 of the resumable prefix holds a weight int64 cannot hold: a
        # 20-digit integer (ascii), 2**63 (binary)
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(format=fmt)
        run_to_interrupt(spec, 350)
        path = pathlib.Path(spec.output.chain_path)
        raw = bytearray(path.read_bytes())
        if fmt == "ascii":
            lines = raw.split(b"\n")
            header = next(i for i, ln in enumerate(lines)
                          if ln and not ln.startswith(b"#"))
            fields = lines[header + 11].split(b",")
            fields[5] = b"18446744073709551616"
            lines[header + 11] = b",".join(fields)
            raw = bytearray(b"\n".join(lines))
        else:
            name_len = struct.unpack_from("<III", raw, len(CHAIN_MAGIC))[2]
            record = struct.calcsize("<IIddQQd" + "d" * 2)
            weight_at = len(CHAIN_MAGIC) + 12 + name_len + 10 * record + 32
            struct.pack_into("<Q", raw, weight_at, 2 ** 63)
        path.write_bytes(bytes(raw))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        argv = ["run", "--out", "run", "--chain-len", "600", "--seed", "4",
                "--format", fmt, "--deterministic-test-mode"]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and err.count("\n") == 1
        assert "damaged chain row 10: SampleWeight" in err
        assert "does not fit int64" in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_multichain_resume_returns_the_uninterrupted_summaries(
        self, tmp_path, monkeypatch
    ):
        # chain 1 completed before the stop; its summary is rebuilt from the
        # chain file and the snapshot's adaptation count
        clean = tmp_path / "clean"
        clean.mkdir()
        monkeypatch.chdir(clean)
        spec = self.spec_here(mode="multichain", chains=2)
        uninterrupted = run_simulation(spec)
        broken = tmp_path / "broken"
        broken.mkdir()
        monkeypatch.chdir(broken)
        run_to_interrupt(spec, 949)
        resumed = run_simulation(spec)
        assert resumed.restarted is True
        assert len(resumed.summaries) == len(uninterrupted.summaries) == 2
        for a, b in zip(uninterrupted.summaries, resumed.summaries):
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if field.name != "chain":
                    assert x == y, field.name
                    continue
                assert x.verbose_length == y.verbose_length
                for column in ("process_ids", "dr_stages", "mean_acceptance_rates",
                               "adaptation_measures", "burnin_locations",
                               "weights", "log_funcs", "states",
                               "verbose_starts"):
                    assert (getattr(x, column).tobytes()
                            == getattr(y, column).tobytes()), column

    # snapshots land at every adaptation (each 100 rows here): 350 and 949
    # stop a run between two, and 949 stops chain 2 of a multichain run,
    # whose chain 1 has written all its 600 rows
    @pytest.mark.parametrize("overrides,stop,rows", [
        ({"mode": "serial", "format": "ascii"}, 350, 350),
        ({"mode": "multichain", "chains": "2", "format": "binary"}, 949, 950),
    ], ids=["serial-ascii", "multichain-binary"])
    def test_interrupt_between_snapshots_leaves_every_finalized_row(
        self, tmp_path, monkeypatch, overrides, stop, rows
    ):
        # rows reach the chain file in blocks; the close of a stopped run
        # writes the ones no snapshot has written yet
        clean = tmp_path / "clean"
        clean.mkdir()
        monkeypatch.chdir(clean)
        run_simulation(self.spec_here(**overrides))
        broken = tmp_path / "broken"
        broken.mkdir()
        monkeypatch.chdir(broken)
        spec = self.spec_here(**overrides)
        run_to_interrupt(spec, stop)
        left = (broken / spec.output.chain_path).read_bytes()
        assert read_snapshot(spec.output.restart_path)["rows_written"] < rows
        assert read_chain(spec.output.chain_path).n_rows == rows
        assert left == (clean / spec.output.chain_path).read_bytes()[: len(left)]
        assert run_simulation(spec).restarted is True
        assert_suites_identical(clean, broken)

    def test_failed_row_write_at_close_keeps_the_run_exception(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        closed = []
        for writer in (ChainWriter, dramp.persist.ProgressWriter):
            def close(self, original=writer.close, name=writer.__name__):
                closed.append(name)
                original(self)

            monkeypatch.setattr(writer, "close", close)
        stopping = []
        write_rows = ChainWriter.write_rows

        def failing_write_rows(self, chain, start, end):
            if stopping:
                raise dramp.persist.IoFailure("chain write failed: disk full")
            write_rows(self, chain, start, end)

        monkeypatch.setattr(ChainWriter, "write_rows", failing_write_rows)
        bomb = interrupt_after(350)

        def stop(event):
            try:
                bomb(event)
            except Interrupt:
                stopping.append(event)
                raise

        with pytest.raises(Interrupt):
            run_simulation(self.spec_here(), on_event=stop)
        assert stopping and sorted(closed) == ["ChainWriter", "ProgressWriter"]

    @pytest.mark.parametrize("overrides,stop", [
        ({"mode": "serial", "format": "ascii", "chain-len": "1200"}, 1100),
        ({"mode": "forkjoin", "workers": "8", "format": "binary",
          "chain-len": "1200"}, 1100),
        ({"mode": "multichain", "chains": "2", "format": "binary"}, 949),
    ], ids=["serial-ascii", "forkjoin-binary", "multichain-binary"])
    def test_resume_preamble_appends_at_most_the_live_row(
        self, tmp_path, monkeypatch, overrides, stop
    ):
        # the chain file is read, and a multichain prefix split, as columns;
        # only load_state appends a row, the snapshot's live one
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(**overrides)
        run_to_interrupt(spec, stop)
        appends = [0]
        at_first_run = []
        append_row = CompactChain.append_row
        run = Kernel.run

        def counting_append(chain, row):
            appends[0] += 1
            return append_row(chain, row)

        def recording_run(kern, *args, **kwargs):
            at_first_run.append(appends[0])
            return run(kern, *args, **kwargs)

        monkeypatch.setattr(CompactChain, "append_row", counting_append)
        monkeypatch.setattr(Kernel, "run", recording_run)
        assert run_simulation(spec).restarted is True
        assert at_first_run[0] <= 1

    def test_dr_stage_out_of_range_refused_untouched(
        self, tmp_path, monkeypatch, capsys
    ):
        # row 10 decodes, but its DR stage is past the spec's one stage; the
        # stage tallies are read off that column
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here()
        run_to_interrupt(spec, 350)
        path = pathlib.Path(spec.output.chain_path)
        lines = path.read_bytes().split(b"\n")
        header = next(i for i, ln in enumerate(lines)
                      if ln and not ln.startswith(b"#"))
        fields = lines[header + 11].split(b",")
        fields[1] = b"5"
        lines[header + 11] = b",".join(fields)
        path.write_bytes(b"\n".join(lines))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        argv = ["run", "--out", "run", "--chain-len", "600", "--seed", "4",
                "--deterministic-test-mode"]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and err.count("\n") == 1
        assert "DR stage outside [0, 1]" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


LOG_MODES = [
    {"mode": "serial"},
    {"mode": "multichain", "chains": "2"},
    {"mode": "forkjoin", "workers": "4"},
]
LOG_MODE_IDS = ["serial", "multichain", "forkjoin"]


def log_records(path):
    """(start, end) of each complete record of the restart log at ``path``,
    walked by the headers: the magic, the version and the body length."""
    raw = pathlib.Path(path).read_bytes()
    head = len(RESTART_MAGIC) + 8
    bounds, start = [], 0
    while start + head <= len(raw):
        assert raw.startswith(RESTART_MAGIC, start)
        end = start + head + struct.unpack_from("<II", raw, start + 8)[1] + 32
        if end > len(raw):
            break
        bounds.append((start, end))
        start = end
    return bounds


def snapshot_files(tmp_path):
    return {p.name: p.read_bytes() for p in tmp_path.iterdir()}


class TestRestartLog:
    """The restart file as a log of snapshot records: a kill mid-append
    leaves a torn last record, which a resume cuts; damage to the last
    complete record refuses the resume; a log past SNAPSHOT_LOG_LIMIT is
    replaced whole by the next snapshot; a fresh start writes a new log."""

    spec_here = TestResume.spec_here

    def clean_run(self, tmp_path, monkeypatch, **overrides):
        """Run uninterrupted in tmp_path/clean, then change to an empty
        tmp_path/broken; return the clean directory."""
        clean = tmp_path / "clean"
        clean.mkdir()
        monkeypatch.chdir(clean)
        assert run_simulation(self.spec_here(**overrides)).restarted is False
        broken = tmp_path / "broken"
        broken.mkdir()
        monkeypatch.chdir(broken)
        return clean

    @pytest.mark.parametrize("overrides", LOG_MODES, ids=LOG_MODE_IDS)
    def test_torn_last_record_is_cut_and_resumes_to_identical_bytes(
        self, tmp_path, monkeypatch, overrides
    ):
        clean = self.clean_run(tmp_path, monkeypatch, **overrides)
        spec = self.spec_here(**overrides)
        run_to_interrupt(spec, 350)
        path = spec.output.restart_path
        records = log_records(path)
        assert len(records) >= 2 and records[-1][1] == os.path.getsize(path)
        earlier = read_snapshot(path)
        start, end = records[-1]
        os.truncate(path, (start + end) // 2)
        # the resume starts from the record before the torn one
        snap = read_snapshot(path)
        assert snap.end == start and snap["rows_written"] < earlier["rows_written"]
        assert run_simulation(spec).restarted is True
        assert_suites_identical(clean, tmp_path / "broken")

    @pytest.mark.parametrize("overrides", LOG_MODES, ids=LOG_MODE_IDS)
    def test_torn_first_record_beside_row_free_chain_starts_afresh(
        self, tmp_path, monkeypatch, overrides
    ):
        # a run stopped while appending its first snapshot leaves a chain
        # header, a progress header and a torn record; the rerun starts a
        # new log rather than appending to that one
        clean = self.clean_run(tmp_path, monkeypatch, **overrides)
        spec = self.spec_here(**overrides)
        write = dramp.driver.write_snapshot

        def torn(path, payload):
            write(path, payload)
            os.truncate(path, os.path.getsize(path) // 2)
            raise Interrupt()

        with monkeypatch.context() as patched:
            patched.setattr(dramp.driver, "write_snapshot", torn)
            with pytest.raises(Interrupt):
                run_simulation(spec)
        assert log_records(spec.output.restart_path) == []
        assert detect_incomplete("run") == (RunState.FRESH, None)
        assert run_simulation(spec).restarted is False
        assert_suites_identical(clean, tmp_path / "broken")

    @pytest.mark.parametrize("overrides", LOG_MODES, ids=LOG_MODE_IDS)
    def test_torn_first_record_beside_chain_rows_refused_untouched(
        self, tmp_path, monkeypatch, overrides
    ):
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(**overrides)
        run_to_interrupt(spec, 350)
        path = spec.output.restart_path
        os.truncate(path, log_records(path)[0][1] // 2)
        before = snapshot_files(tmp_path)
        with pytest.raises(CorruptRestart, match="neither complete nor resumable"):
            run_simulation(spec)
        assert snapshot_files(tmp_path) == before

    @pytest.mark.parametrize("overrides", LOG_MODES, ids=LOG_MODE_IDS)
    def test_flipped_byte_in_last_record_refused_untouched(
        self, tmp_path, monkeypatch, overrides
    ):
        monkeypatch.chdir(tmp_path)
        spec = self.spec_here(**overrides)
        run_to_interrupt(spec, 350)
        path = pathlib.Path(spec.output.restart_path)
        start, end = log_records(path)[-1]
        raw = bytearray(path.read_bytes())
        raw[(start + end) // 2] ^= 0x40  # a byte of the JSON body
        path.write_bytes(bytes(raw))
        before = snapshot_files(tmp_path)
        with pytest.raises(CorruptRestart, match="snapshot checksum mismatch"):
            run_simulation(spec)
        assert snapshot_files(tmp_path) == before

    @pytest.mark.parametrize("stop", ["before", "after"])
    def test_compaction_resumes_to_identical_bytes(
        self, tmp_path, monkeypatch, stop
    ):
        # a d = 2 snapshot is about 700 bytes, so 6,000 rows, with a
        # snapshot about every 100 rows while the proposal adapts, cross the
        # limit twice
        clean = tmp_path / "clean"
        clean.mkdir()
        monkeypatch.chdir(clean)
        spec = self.spec_here(**{"target": "mvn", "dim": "2", "chain-len": "6000"})
        write = dramp.driver.write_snapshot
        sizes = []

        def recording(path, payload):
            before = os.path.getsize(path) if os.path.exists(path) else 0
            write(path, payload)
            sizes.append((before, os.path.getsize(path)))

        with monkeypatch.context() as patched:
            patched.setattr(dramp.driver, "write_snapshot", recording)
            run_simulation(spec)
        # a snapshot appends below the limit and replaces the log from it,
        # so the log never holds more than the limit plus one record
        for before, after in sizes:
            assert (after > before) == (before < SNAPSHOT_LOG_LIMIT)
        records = [after - before if after > before else after
                   for before, after in sizes]
        assert max(after for _, after in sizes) < SNAPSHOT_LOG_LIMIT + max(records)
        assert sum(before >= SNAPSHOT_LOG_LIMIT for before, _ in sizes) >= 2

        broken = tmp_path / "broken"
        broken.mkdir()
        monkeypatch.chdir(broken)

        def stop_at_compaction(path, payload):
            full = os.path.exists(path) and os.path.getsize(path) >= SNAPSHOT_LOG_LIMIT
            if full and stop == "before":
                raise Interrupt()
            write(path, payload)
            if full:
                assert log_records(path) == [(0, os.path.getsize(path))]
                raise Interrupt()

        with monkeypatch.context() as patched:
            patched.setattr(dramp.driver, "write_snapshot", stop_at_compaction)
            with pytest.raises(Interrupt):
                run_simulation(spec)
        assert run_simulation(spec).restarted is True
        assert_suites_identical(clean, broken)

    @pytest.mark.parametrize("overrides", LOG_MODES, ids=LOG_MODE_IDS)
    def test_forced_overwrite_starts_a_new_log(
        self, tmp_path, monkeypatch, capsys, overrides
    ):
        clean = self.clean_run(tmp_path, monkeypatch, **overrides)
        # a completed run of another seed is overwritten
        run_simulation(self.spec_here(**dict(overrides, seed=5)))
        argv = ["run", "--out", "run", "--chain-len", "600", "--seed", "4",
                "--deterministic-test-mode", "--force-overwrite"]
        for key, value in overrides.items():
            argv += ["--" + key, str(value)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert_suites_identical(clean, tmp_path / "broken")


def child_env():
    """The parent's environment with the imported package's directory first on
    PYTHONPATH, so a child started from another working directory imports the
    same dramp whether it is installed or comes from a relative ``src``."""
    env = dict(os.environ)
    root = str(pathlib.Path(dramp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class TestProcessKill:
    def test_sigkill_then_rerun_matches_uninterrupted(self, tmp_path):
        cmd = [
            sys.executable, "-m", "dramp", "run", "--target", "mvn",
            "--dim", "2", "--chain-len", "30000", "--seed", "5",
            "--out", "run", "--deterministic-test-mode",
        ]
        env = child_env()
        clean = tmp_path / "clean"
        clean.mkdir()
        subprocess.run(cmd, cwd=clean, env=env, check=True, capture_output=True)

        killed = tmp_path / "killed"
        killed.mkdir()
        proc = subprocess.Popen(
            cmd, cwd=killed, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        chain = killed / "run_chain.txt"
        progress = killed / "run_progress.txt"
        # the progress file holds a format line and a header; each tick line
        # is flushed as it is written, so the fourth line is the second tick
        deadline = time.monotonic() + 60.0
        while not (progress.exists() and progress.read_bytes().count(b"\n") >= 4):
            if proc.poll() is not None:
                pytest.fail("run finished before it could be killed")
            if time.monotonic() > deadline:
                proc.kill()
                pytest.fail("run never reached the kill threshold")
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        assert chain.stat().st_size < (clean / "run_chain.txt").stat().st_size

        rerun = subprocess.run(
            cmd, cwd=killed, env=env, capture_output=True, text=True
        )
        assert rerun.returncode == EXIT_OK
        assert rerun.stdout.startswith("resumed run under prefix")
        assert_suites_identical(clean, killed)


# the run path without scipy: with sys.modules["scipy"] = None any scipy
# import raises ImportError, so this child fails if one comes back
NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None
import dramp
from dramp.cli import main
from dramp.config import build_spec
from dramp.driver import run_simulation
run_simulation(build_spec({"mode": "forkjoin", "workers": "4", "chain-len": "300",
                           "seed": "2", "out": "fj", "deterministic-test-mode": "true"}))
sys.exit(main(["predict", "fj_chain.txt", "--max-workers", "8"]))
"""


class TestNoScipyAtRunTime:
    def test_forkjoin_run_and_predict_without_scipy(self, tmp_path):
        child = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_RUN], cwd=tmp_path, env=child_env(),
            capture_output=True, text=True,
        )
        assert child.returncode == EXIT_OK, child.stderr
        assert child.stdout.startswith("source: worker contribution tally (4 workers)\n")
        assert "fitted acceptance prob" in (tmp_path / "fj_report.txt").read_text()

    def test_import_loads_no_scipy_module(self, tmp_path):
        child = subprocess.run(
            [sys.executable, "-c", "import sys, dramp.driver, dramp.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        )
        assert child.returncode == EXIT_OK, child.stderr
        assert child.stdout == "[]\n"


class TestPackageSurface:
    """Names come from their modules; ``import dramp`` re-exports nothing."""

    def test_every_all_resolves_and_the_package_imports_alone(self, tmp_path):
        names = sorted(m.name for m in pkgutil.iter_modules(dramp.__path__))
        listed = []
        for name in names:
            module = importlib.import_module("dramp." + name)
            if hasattr(module, "__all__"):
                exec("from dramp.%s import *" % name, {})
                listed.append(name)
        assert {"driver", "kernel", "parallel", "refine"} <= set(listed)
        child = subprocess.run(
            [sys.executable, "-c", "import sys, dramp; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'dramp'))"],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        )
        assert child.returncode == EXIT_OK, child.stderr
        assert child.stdout == "['dramp']\n"
