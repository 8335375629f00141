#!/usr/bin/env python3
"""Run bench/run.py over several seeds and summarise each metric.

    python3 bench/collect.py --out bench/baseline.json

Every workload declared in ``BENCHMARK.json`` is run. Untraced runs use
``--seeds`` (default 1-10); traced runs, which give the per-layer numbers,
use ``--trace-seeds`` (default 1-3); each list needs two seeds or more. The
defaults are the seeds ``baseline.json`` was collected with. For every
workload, trace mode and metric the output holds the per-seed values, their
median and the quartile spread (q3 - q1) / median, computed with
``statistics.quantiles(values, n=4)``. It also carries the prediction
table: which layer metric should move which end-to-end metric, on which
workload, and where it should stay flat. A change to one layer quotes its
before and after numbers from two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (layer metrics, end-to-end metric they move, moves on, flat on)
PREDICTIONS = (
    (["proposal.log_kernel_density.calls", "proposal.log_kernel_density.s",
      "kernel.cascade.calls", "kernel.cascade.s", "kernel.cascade.self_s",
      "kernel.step.self_s"],
     "steps_per_s", "serial-dr2",
     "forkjoin-p8 and multichain-resume, where log_kernel_density.calls is exactly 0"),
    (["kernel.stage0.accept_ratio", "kernel.stage1.accept_ratio",
      "kernel.stage2.accept_ratio", "kernel.attempts_per_row"],
     "none: a waste ratio that moves only when the trajectory changes", "all", "n/a"),
    (["rng.round_stream.calls", "rng.round_stream.s", "parallel.ranks_per_round",
      "parallel.run_forkjoin.self_s"],
     "steps_per_s", "forkjoin-p8", "serial-dr2 and multichain-resume (0 calls)"),
    (["model.evaluate.calls", "model.evaluate.s",
      "proposal.sample_candidate.calls", "proposal.sample_candidate.s"],
     "steps_per_s", "forkjoin-p8", "n/a"),
    (["chain.moments_update.calls", "chain.moments_update.s", "kernel.commit.calls",
      "kernel.commit.s", "proposal.adapt.calls", "proposal.adapt.s"],
     "rows_per_s", "multichain-resume (d=32)", "forkjoin-p8 (d=4, small)"),
    (["persist.write_row.calls", "persist.write_row.s", "persist.chain_bytes",
      "chain.row.calls", "chain.row.s"],
     "rows_per_s", "multichain-resume (binary)",
     "serial-dr2 (ascii) when a change touches the binary codec only"),
    (["persist.read_chain.calls", "persist.read_chain.s", "chain.append_row.calls",
      "chain.append_row.s", "driver.resume_preamble.s",
      "persist.detect_incomplete.calls", "persist.detect_incomplete.s",
      "persist.read_snapshot.calls", "persist.read_snapshot.s",
      "driver.slice_chain.calls", "driver.slice_chain.s",
      "kernel.load_state.calls", "kernel.load_state.s"],
     "resume_p50_s and resume_p90_s", "multichain-resume; also serial-dr2 (ascii) "
     "and forkjoin-p8 (binary), whose resume metrics come from the resume probe",
     "rows_per_s and steps_per_s of serial-dr2 and forkjoin-p8, whose traced "
     "suites read nothing (0 calls)"),
    (["persist.snapshot.calls", "persist.snapshot.s", "persist.snapshot.bytes",
      "kernel.state_dict.calls", "kernel.state_dict.s", "driver.payload.calls",
      "driver.payload.s"],
     "rows_per_s", "multichain-resume", "n/a"),
    (["refine.refine_two_phase.s", "refine.rounds", "refine.kept_points",
      "refine.cross_chain_check.s", "persist.report.s", "persist.sample.s"],
     "rows_per_s (small)", "all", "n/a: refinement must show no regression"),
    (["driver.run_simulation.s", "driver.self_s", "trace.coverage", "trace.overhead"],
     "n/a: these check the trace itself", "all", "n/a"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace-seeds", default="1,2,3")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    seeds = {"0": [int(s) for s in args.seeds.split(",") if s],
             "1": [int(s) for s in args.trace_seeds.split(",") if s]}
    summary = {"run_seconds": declared["run_seconds"], "seeds": seeds,
               "predictions": [
                   {"layer_metrics": m, "moves": e, "moves_on": on, "flat_on": flat}
                   for m, e, on, flat in PREDICTIONS],
               "workloads": {}}
    for name in names:
        for trace in ("0", "1"):
            if not seeds[trace]:
                continue
            runs = []
            calibrations = []
            for seed in seeds[trace]:
                cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(declared["run_seconds"]), "--trace", trace]
                out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
                if out.returncode != 0:
                    sys.stderr.write(out.stderr)
                    raise SystemExit("%s seed %d exited %d" % (name, seed, out.returncode))
                lines = out.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                env = json.loads(lines[0][len("env "):])
                runs.append(result)
                tag = "%s-seed%d-trace%s" % (name, seed, trace)
                with open(os.path.join(ROOT, ".bench_results", tag + ".json"),
                          encoding="utf-8") as fh:
                    calibrations.append(statistics.median(json.load(fh)["calibration_s"]))
                print("%s seed %d trace %s: correct %s, %d/%d failed" % (
                    name, seed, trace, result["correct"], result["failed"],
                    result["attempted"]), flush=True)
            metrics = {}
            for metric in runs[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in runs]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                metrics[metric] = {
                    "unit": runs[0]["metrics"][metric]["unit"],
                    "median": median,
                    "spread": (q3 - q1) / median if median else 0.0,
                    "values": values,
                }
                print("  %-34s median %-12.6g %-6s spread %.4f over %d seeds" % (
                    metric, median, metrics[metric]["unit"],
                    metrics[metric]["spread"], len(values)), flush=True)
            summary["env"] = env
            summary["workloads"].setdefault(name, {})["trace%s" % trace] = {
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": metrics,
                # median calibrate() time of each run: it tracks the host's
                # speed and must not move with the revision of dramp
                "calibration_s": calibrations,
            }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
