"""Configuration resolution, the command-line front end, and crash recovery."""

import math
import os
import pathlib
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import dramp
from dramp.chain import ChainRow
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
    TRAJECTORY_VERSION,
    build_spec,
    check_restart_compatibility,
    parse_config_file,
    spec_digest,
    spec_to_items,
)
import dramp.driver
from dramp.driver import run_simulation
from dramp.errors import BadDimension, SpecMismatch
from dramp.kernel import Kernel
from dramp.model import TargetDensity, gaussian_target
from dramp.parallel import PREDICTION_GRID
from dramp.persist import (
    CHAIN_MAGIC,
    ChainWriter,
    OutputSuite,
    read_chain,
    read_report_echo,
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


def write_flat_chain(path, weights, delimiter=","):
    """Hand-build a one-dimensional serial chain with the given row weights."""
    prefix = str(path)[: -len("_chain.txt")]
    suite = OutputSuite(prefix=prefix, chain_format="ascii", delimiter=delimiter)
    with ChainWriter(suite, ("Var1",)) as writer:
        for i, w in enumerate(weights):
            writer.write_row(
                ChainRow(
                    process_id=1,
                    dr_stage=0,
                    mean_acceptance_rate=0.5,
                    adaptation_measure=0.0,
                    burnin_location=0,
                    weight=int(w),
                    log_func=-0.5,
                    state=(float(i),),
                )
            )
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

    def test_restart_compatibility(self):
        spec = self.spec()
        snap = {
            "spec_digest": spec_digest(spec),
            "chain_format": "ascii",
            "delimiter": ",",
            "format_version": 1,
            "trajectory_version": TRAJECTORY_VERSION,
        }
        check_restart_compatibility(spec, snap)  # must not raise
        with pytest.raises(SpecMismatch):
            check_restart_compatibility(self.spec(seed=9), snap)
        with pytest.raises(SpecMismatch, match="chain_format"):
            check_restart_compatibility(spec, dict(snap, chain_format="binary"))
        with pytest.raises(SpecMismatch, match="delimiter"):
            check_restart_compatibility(spec, dict(snap, delimiter=";"))
        with pytest.raises(SpecMismatch, match="version"):
            check_restart_compatibility(spec, dict(snap, format_version=2))
        older = dict(snap)
        del older["trajectory_version"]  # written before the field existed
        for stale in (older, dict(snap, trajectory_version=TRAJECTORY_VERSION + 1)):
            stored = stale.get("trajectory_version", 1)
            with pytest.raises(
                SpecMismatch,
                match="trajectory version %d .* %d" % (stored, TRAJECTORY_VERSION),
            ):
                check_restart_compatibility(spec, stale)


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

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(run_flags(tmp_path / "x", dim="0")) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        argv = run_flags(tmp_path / "x", start="nan,nan", chain_len="50")
        assert main(argv) == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err

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
        echo = dict(read_report_echo("%s_report.txt" % prefix))
        assert echo["seed"] == "22"
        assert echo["dim"] == "1"
        assert echo["chain-len"] == "120"

    def test_report_echo_reproduces_spec(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        assert main(run_flags(prefix)) == EXIT_OK
        echo = read_report_echo("%s_report.txt" % prefix)
        keys = [key for key, _ in echo]
        assert len(keys) == len(set(keys))
        spec = build_spec(dict(echo))
        original = build_spec(dict(
            (k, v) for k, v in
            [("target", "mvn"), ("dim", "2"), ("chain-len", "400"),
             ("seed", "4"), ("out", str(prefix)),
             ("deterministic-test-mode", "true")]
        ))
        assert spec_digest(spec) == spec_digest(original)


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
        """Stop a run after ``stop`` finalized rows, or in its report when
        ``stop`` is "finish", resume it through ``dramp run`` and compare the
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
        for stale in (1, 2):
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
