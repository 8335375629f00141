"""Golden output digests: "every output byte unchanged" as a test.

``digests.json`` beside this file holds the SHA-256 of every output file of
the small runs in SPECS, a report's without its ``out =`` line (which holds
the directory the run wrote to). It records the versions a resume checks,
numpy's version and this machine's arithmetic fingerprint: the bits of fixed
BLAS, LAPACK, numpy and math probes. The digests hold only where the
fingerprint is the recorded one.

``python -m tests.golden --write`` regenerates ``digests.json``; without
``--write`` it prints each digest that moved. Regenerate only with a bump of
a version, or a declared change of a file format.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

import numpy as np

from dramp.config import SNAPSHOT_FORMAT_VERSION, TRAJECTORY_VERSION, build_spec
from dramp.driver import run_simulation

PATH = pathlib.Path(__file__).with_name("digests.json")

# each mode and codec, DR 0 to 3, each target family, a multichain
# convergence check and a fork-join tally; "kill" stops a run at that many
# finalized rows before it is run again, which resumes it
SPECS = {
    "serial-mvn4-dr0-ascii": {"target": "mvn", "dim": "4", "dr-stages": "0",
                              "chain-len": "5000", "seed": "11"},
    "serial-banana3-dr3-ascii": {"target": "banana", "dim": "3", "dr-stages": "3",
                                 "chain-len": "5000", "seed": "12",
                                 "delimiter": "|"},
    "serial-himmelblau-dr2-binary": {"target": "himmelblau", "dr-stages": "2",
                                     "chain-len": "5000", "seed": "13",
                                     "format": "binary"},
    "serial-mvn8-dr1-binary": {"target": "mvn", "dim": "8", "dr-stages": "1",
                               "chain-len": "4000", "seed": "14",
                               "format": "binary"},
    "forkjoin-banana4-p8-binary": {"target": "banana", "dim": "4", "dr-stages": "0",
                                   "chain-len": "6000", "seed": "15",
                                   "mode": "forkjoin", "workers": "8",
                                   "format": "binary"},
    "forkjoin-mvn3-p3-dr2-ascii": {"target": "mvn", "dim": "3", "dr-stages": "2",
                                   "chain-len": "3000", "seed": "16",
                                   "mode": "forkjoin", "workers": "3"},
    "multichain-mvn3-c3-ascii": {"target": "mvn", "dim": "3", "chain-len": "3000",
                                 "seed": "17", "mode": "multichain", "chains": "3"},
    "multichain-mvn32-c2-dr1-binary": {"target": "mvn", "dim": "32",
                                       "dr-stages": "1", "chain-len": "2000",
                                       "seed": "18", "mode": "multichain",
                                       "chains": "2", "format": "binary"},
    # criterion 7's spec
    "criterion7-killed-3": {"target": "mvn", "dim": "2", "chain-len": "100000",
                            "seed": "6", "kill": 3},
}


class _Kill(Exception):
    pass


def fingerprint() -> str:
    """A digest of the bits of fixed dot, dgemv, dgemm, cholesky, inv,
    vecdot, numpy exp and log, and math.exp and math.log results."""
    rng = np.random.default_rng(2024)
    a = rng.standard_normal((33, 33))
    v = rng.standard_normal(33)
    spd = a.dot(a.T) + 33.0 * np.eye(33)
    probes = [v.dot(v), a[:8, :8].dot(v[:8]), a.dot(v), a.dot(a.T),
              np.linalg.cholesky(spd), np.linalg.inv(spd), np.vecdot(a, a),
              np.exp(v), np.log(np.abs(v)),
              np.array([math.exp(x) for x in v.tolist()]),
              np.array([math.log(abs(x)) for x in v.tolist()])]
    digest = hashlib.sha256()
    for probe in probes:
        digest.update(np.ascontiguousarray(probe).tobytes())
    return digest.hexdigest()[:16]


def _file_digests(directory: pathlib.Path) -> dict:
    digests = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_report.txt"):
            data = b"".join(line for line in data.splitlines(True)
                            if not line.startswith(b"out = "))
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def run_specs(root: pathlib.Path) -> dict:
    """The file digests of every spec's run, by spec name, each run under
    its own directory of ``root``."""
    digests = {}
    for name, values in SPECS.items():
        values = dict(values)
        kill = values.pop("kill", None)
        directory = root / name
        directory.mkdir()
        spec = build_spec(dict(values, out=str(directory / "run"),
                               **{"deterministic-test-mode": "true"}))
        if kill is not None:
            def stop(event):
                if event[0] == "row_final" and event[1] >= kill:
                    raise _Kill()

            try:
                run_simulation(spec, on_event=stop)
            except _Kill:
                pass
        run_simulation(spec)
        digests[name] = _file_digests(directory)
    return digests


def load() -> dict:
    return json.loads(PATH.read_text())


def moved(recorded: dict, digests: dict) -> list:
    """"spec/file" of each digest that differs from the recorded one, or
    that only one of them holds."""
    names = {(spec, name) for table in (recorded, digests)
             for spec, files in table.items() for name in files}
    return sorted("%s/%s" % (spec, name) for spec, name in names
                  if recorded.get(spec, {}).get(name) != digests.get(spec, {}).get(name))


def write(root: pathlib.Path) -> None:
    """Run the specs under ``root`` and record their digests in PATH."""
    record = {
        "trajectory_version": TRAJECTORY_VERSION,
        "snapshot_format_version": SNAPSHOT_FORMAT_VERSION,
        "numpy": np.__version__,
        "fingerprint": fingerprint(),
        "digests": run_specs(root),
    }
    PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
