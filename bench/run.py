#!/usr/bin/env python3
"""dramp-bench: end-to-end and per-layer benchmark for ``dramp run``.

Run from the repository root:

    python3 bench/run.py --workload serial-dr2 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from traced suites. The metric names, units and bounds are
declared in ``BENCHMARK.json``; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The benchmark runs in one process and one thread and imports dramp from
``src/`` of the checkout it sits in; it exits non-zero, printing no result,
when those sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# BLAS and OpenMP size their thread pools when numpy loads: pin them first
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "dramp", "__init__.py")):
        print("dramp-bench: no dramp sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, SRC)
    import harness  # imports numpy and dramp, so only after the pins

    return harness.run(args, declared, ROOT)


if __name__ == "__main__":
    sys.exit(main())
