"""Command-line front end.

Commands: ``run`` (execute a simulation from a config file and/or flags),
``refine`` (re-refine an existing chain file), ``predict`` (scaling forecast
from a chain file), ``export-plotdata`` (tidy CSV extracts of a finished
run). Exit codes: 0 success, 1 configuration or input error, 2 runtime
error, 3 refusal to overwrite a completed run.

Every specification field is exposed as a ``--<key>`` flag with the same
name as its config-file key; flags override file values.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .config import FIELDS, build_spec, make_target, parse_config_file
from .driver import _make_kernel, run_simulation
from .errors import NonFiniteStart, RefusedOverwrite, SamplerError, SpecMismatch
from .parallel import predict_speedup, run_speedup
from .persist import OutputSuite, _fmt, chain_prefix, read_chain
from .persist import write_sample
from .refine import refine_two_phase

__all__ = ["main", "build_parser"]

FIGURES = ("adaptation", "covariance", "contributions", "scaling")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_REFUSED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dramp",
        description="Adaptive MCMC sampler with delayed rejection, compact "
        "weighted chains, sample refinement and parallel protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run a simulation from a config file and/or flags",
        description="Run a simulation. Any --<key> flag overrides the same "
        "key in the config file. An interrupted run under the same output "
        "prefix is resumed automatically.",
    )
    run.add_argument("--config", help="flat key=value config file")
    for key, (_, description) in FIELDS.items():
        if key == "deterministic-test-mode":
            run.add_argument(
                "--%s" % key,
                action="store_const",
                const="true",
                default=None,
                help=description,
            )
        else:
            run.add_argument("--%s" % key, default=None, help=description)
    run.add_argument(
        "--force-overwrite",
        action="store_true",
        help="replace any existing run under the output prefix",
    )

    refine = sub.add_parser(
        "refine",
        help="refine an existing chain file into a decorrelated sample",
    )
    refine.add_argument("chain", help="chain file (ASCII or binary)")
    refine.add_argument("sample_out", help="refined sample output path")
    refine.add_argument(
        "--delimiter", default=",", help="column delimiter of ASCII inputs"
    )

    predict = sub.add_parser(
        "predict",
        help="forecast fork-join scaling from a chain file (and the run's "
        "report next to it, if any)",
    )
    predict.add_argument("chain", help="chain file (ASCII or binary)")
    predict.add_argument(
        "--max-workers",
        type=int,
        default=4096,
        help="largest worker count in the printed table (powers of two)",
    )
    predict.add_argument(
        "--delimiter", default=",", help="column delimiter of ASCII inputs"
    )

    export = sub.add_parser(
        "export-plotdata",
        help="export tidy CSV data from a completed run",
    )
    export.add_argument("prefix", help="output prefix of the completed run")
    export.add_argument("figure", choices=FIGURES, help="which extract")
    export.add_argument("out_csv", help="CSV output path")
    return parser


def _collect_run_values(args) -> dict:
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in FIELDS:
        flag_value = getattr(args, key.replace("-", "_"))
        if flag_value is not None:
            values[key] = flag_value
    return values


def cmd_run(args) -> int:
    try:
        spec = build_spec(_collect_run_values(args))
    except (ValueError, OSError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_simulation(spec, force_overwrite=args.force_overwrite)
    except RefusedOverwrite as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return EXIT_REFUSED
    except (SpecMismatch, NonFiniteStart) as exc:  # a start is a spec value
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (SamplerError, OSError) as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME
    summary = result.summaries[0]
    print("%s run under prefix %r" % ("resumed" if result.restarted else
                                      "completed", spec.output.prefix))
    print("unique states: %d, verbose length: %d, acceptance rate: %s" % (
        summary.chain.n_rows,
        summary.chain.verbose_length,
        _fmt(summary.mean_acceptance_rate),
    ))
    if result.refined is not None:
        print("refined sample size: %d" % result.refined.points.shape[0])
    for path in spec.output.all_paths():
        print("wrote %s" % path)
    return EXIT_OK


def cmd_refine(args) -> int:
    try:
        chain = read_chain(args.chain, args.delimiter)
        refined = refine_two_phase(chain)
        write_sample(args.sample_out, refined, args.delimiter)
    except (SamplerError, OSError, ValueError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_CONFIG
    print("source verbose length: %d" % refined.source_verbose_length)
    for i, rnd in enumerate(refined.rounds):
        print(
            "round %d: phase %d, aggregate IAC %s, kept %d"
            % (i + 1, rnd.phase, _fmt(rnd.iac_aggregate), rnd.kept_count)
        )
    print("final kept count: %d" % refined.points.shape[0])
    print("wrote %s" % args.sample_out)
    return EXIT_OK


def cmd_predict(args) -> int:
    try:
        chain = read_chain(args.chain, args.delimiter)
        prefix = chain_prefix(args.chain)
        spec = None
        if prefix is not None and os.path.exists(OutputSuite(prefix).report_path):
            spec = _run_spec(prefix)
    except (SamplerError, OSError, ValueError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_CONFIG
    if chain.n_rows < 2:
        print(
            "missing statistics: chain records no accepted moves",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if args.max_workers < 1:
        print("max-workers must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    mode, workers = ("serial", 1) if spec is None else (spec.mode, spec.worker_count)
    tally, speedup = run_speedup([chain], mode, workers)
    if tally is not None:
        print("source: worker contribution tally (%d workers)" % tally.worker_count)
    else:
        print("source: measured acceptance rate")
    p_hat = speedup.fitted_acceptance_prob
    print("p-hat: %s" % _fmt(p_hat))
    print("P,PredictedSpeedup")
    workers = 1
    while workers <= args.max_workers:
        print("%d,%s" % (workers, _fmt(predict_speedup(p_hat, workers))))
        workers *= 2
    print("recommended workers: %d" % speedup.recommended_workers)
    return EXIT_OK


def _run_spec(prefix: str):
    """The spec a completed run echoed into its report."""
    return build_spec(parse_config_file(OutputSuite(prefix).report_path))


def _load_run(prefix: str):
    spec = _run_spec(prefix)
    suite = OutputSuite(prefix, spec.output.chain_format, spec.output.delimiter)
    return spec, read_chain(suite.chain_path, suite.delimiter)


def _adapted_covariances(spec, chain) -> List[np.ndarray]:
    """The shape matrix after each adaptation of the run's first chain,
    read off its rows through the kernel's own adaptation code; the target
    is built but never evaluated. A multichain run's first chain is its
    leading rows, which carry process id 1."""
    if spec.mode == "multichain":
        others = np.flatnonzero(chain.process_ids != 1)
        chain = chain.slice(0, int(others[0]) if others.size else chain.n_rows)
    kern = _make_kernel(spec, make_target(spec), 0, chain=chain)
    return [proposal.covariance for _, proposal in kern.adaptations()]


def cmd_export_plotdata(args) -> int:
    try:
        spec, chain = _load_run(args.prefix)
        lines: List[str] = []
        if args.figure == "adaptation":
            measures = chain.adaptation_measures
            starts = chain.verbose_starts
            hits = np.nonzero(measures > 0.0)[0]
            if hits.size == 0:
                raise ValueError("run recorded no adaptation events")
            lines.append("VerboseIndex,Measure")
            for i in hits:
                lines.append("%d,%s" % (int(starts[i]), _fmt(float(measures[i]))))
        elif args.figure == "covariance":
            matrices = _adapted_covariances(spec, chain)
            if not matrices:
                raise ValueError("run recorded no adaptation events")
            lines.append("AdaptationIndex,Row,Col,Value")
            for index, matrix in enumerate(matrices, start=1):
                d = matrix.shape[0]
                for i in range(d):
                    for j in range(d):
                        lines.append(
                            "%d,%d,%d,%s"
                            % (index, i + 1, j + 1, _fmt(float(matrix[i, j])))
                        )
        elif args.figure == "contributions":
            if spec.mode != "forkjoin":
                raise ValueError(
                    "contribution data exists only for forkjoin runs"
                )
            tally, speedup = run_speedup([chain], spec.mode, spec.worker_count)
            p_hat = _fmt(speedup.fitted_acceptance_prob)
            lines.append("Rank,Count,FittedProbability")
            for rank, count in enumerate(tally.counts, start=1):
                lines.append("%d,%d,%s" % (rank, count, p_hat))
        else:  # scaling
            _, speedup = run_speedup([chain], spec.mode, spec.worker_count)
            lines.append("P,PredictedSpeedup,ObservedSpeedup")
            for workers, value in speedup.predicted_curve:
                obs = ""
                if speedup.observed_speedup is not None and workers == spec.worker_count:
                    obs = _fmt(speedup.observed_speedup)
                lines.append("%d,%s,%s" % (workers, _fmt(value), obs))
        with open(args.out_csv, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
    except (SamplerError, OSError, ValueError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_CONFIG
    print("wrote %s" % args.out_csv)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "refine":
        return cmd_refine(args)
    if args.command == "predict":
        return cmd_predict(args)
    return cmd_export_plotdata(args)


if __name__ == "__main__":
    sys.exit(main())
