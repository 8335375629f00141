"""A full disk at every write of a run: ENOSPC from the k-th file operation on.

Every file a run writes is opened by ``dramp.persist``, so ``full_disk``
puts a ``DiskFull`` in place of ``open`` and ``os.replace`` there. Its files
are unbuffered, so a write that returns has reached the file; it counts each
write, flush and close of them and each rename, and from operation
``fail_at`` on (1-based) it raises ENOSPC without touching the file. A run
with a fault must raise IoFailure. The same run again, with the disk back,
must then either complete with every file byte-identical to a clean run's
(a report compared without its ``out =`` line), or refuse by name, with a
SamplerError, leaving every file as it was.

``python -m tests.faults`` sweeps every k of each mode and codec, prints
the count of each outcome and exits 1 if any fits neither class.
"""

from __future__ import annotations

import builtins
import contextlib
import errno
import os
import pathlib
import sys
import tempfile
from collections import Counter

import dramp.persist
from dramp.config import build_spec
from dramp.driver import run_simulation
from dramp.errors import IoFailure, SamplerError

# small runs that snapshot often, so the restart log is compacted too
SPECS = {
    "serial-ascii": {"target": "mvn", "dim": "2", "dr-stages": "1",
                     "chain-len": "600", "seed": "3", "adaptation-period": "20"},
    "serial-binary": {"target": "banana", "dim": "3", "dr-stages": "2",
                      "chain-len": "600", "seed": "4", "format": "binary",
                      "adaptation-period": "20"},
    "forkjoin-ascii": {"target": "himmelblau", "chain-len": "600", "seed": "5",
                       "mode": "forkjoin", "workers": "4",
                       "adaptation-period": "20"},
    "forkjoin-binary": {"target": "banana", "dim": "4", "dr-stages": "0",
                        "chain-len": "600", "seed": "6", "mode": "forkjoin",
                        "workers": "8", "format": "binary",
                        "adaptation-period": "20"},
    "multichain-ascii": {"target": "mvn", "dim": "2", "chain-len": "300",
                         "seed": "7", "mode": "multichain", "chains": "3",
                         "adaptation-period": "20"},
    "multichain-binary": {"target": "mvn", "dim": "3", "dr-stages": "2",
                          "chain-len": "300", "seed": "8", "mode": "multichain",
                          "chains": "2", "format": "binary",
                          "adaptation-period": "20"},
}


class DiskFull:
    """Counts the operations on the files it opens for writing, and the
    renames; from operation ``fail_at`` on, each raises ENOSPC. With
    ``fail_at`` None nothing fails."""

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.count = 0

    def use(self, path) -> None:
        self.count += 1
        if self.fail_at is not None and self.count >= self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    def open(self, path, mode="r", *args, **kwargs):
        if "r" in mode:
            return builtins.open(path, mode, *args, **kwargs)
        return _File(self, path, builtins.open(path, mode, buffering=0))

    def replace(self, src, dst) -> None:
        self.use(src)
        os.replace(src, dst)


class _File:
    def __init__(self, disk: DiskFull, path, raw):
        self._disk, self._path, self._raw = disk, path, raw

    def write(self, data):
        self._disk.use(self._path)
        return self._raw.write(data)

    def flush(self) -> None:
        self._disk.use(self._path)

    def tell(self) -> int:
        return self._raw.tell()

    def close(self) -> None:
        if not self._raw.closed:  # as a file's, a second close does nothing
            try:
                self._disk.use(self._path)
            finally:
                self._raw.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _Os:
    """``os`` with ``replace`` taken from a DiskFull."""

    def __init__(self, disk: DiskFull):
        self.replace = disk.replace

    def __getattr__(self, name):
        return getattr(os, name)


@contextlib.contextmanager
def full_disk(disk: DiskFull):
    """Route dramp.persist's opens and renames through ``disk``."""
    persist = dramp.persist
    persist.open, persist.os = disk.open, _Os(disk)
    try:
        yield disk
    finally:
        del persist.open
        persist.os = os


def suite_bytes(directory: pathlib.Path) -> dict:
    """Each file's bytes by name; a report's without its ``out =`` line,
    which holds the directory."""
    files = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_report.txt"):
            data = b"".join(line for line in data.splitlines(True)
                            if not line.startswith(b"out = "))
        files[path.name] = data
    return files


def spec_in(values: dict, directory: pathlib.Path):
    directory.mkdir()
    return build_spec(dict(values, out=str(directory / "run"),
                           **{"deterministic-test-mode": "true"}))


def clean_run(values: dict, root: pathlib.Path):
    """(file bytes, operations) of an uninterrupted run."""
    spec = spec_in(values, root / "clean")
    with full_disk(DiskFull()) as disk:
        run_simulation(spec)
    return suite_bytes(root / "clean"), disk.count


def outcome(values: dict, root: pathlib.Path, k: int, clean: dict) -> str:
    """The class of a run whose k-th file operation fails and of its rerun:
    "resumed" or "refused", else a description of what went wrong."""
    directory = root / ("k%d" % k)
    spec = spec_in(values, directory)
    try:
        with full_disk(DiskFull(k)):
            run_simulation(spec)
        return "the run completed through its fault"
    except IoFailure:
        pass
    except Exception as exc:  # anything else is what the sweep looks for
        return "the fault raised %s: %s" % (type(exc).__name__, exc)
    left = suite_bytes(directory)
    try:
        run_simulation(spec)
    except SamplerError:
        if suite_bytes(directory) == left:
            return "refused"
        return "a refused rerun changed files"
    except Exception as exc:
        return "the rerun raised %s: %s" % (type(exc).__name__, exc)
    got = suite_bytes(directory)
    if got == clean:
        return "resumed"
    return "the rerun's files differ: %s" % sorted(
        name for name in set(got) | set(clean) if got.get(name) != clean.get(name))


def sweep(values: dict, root: pathlib.Path, stride: int = 1):
    """The count of each outcome over k = 1, 1 + stride, ... and the clean
    run's last operation, and the (k, outcome) pairs in neither class."""
    clean, operations = clean_run(values, root)
    counts, wrong = Counter(), []
    for k in sorted(set(range(1, operations, stride)) | {operations}):
        got = outcome(values, root, k, clean)
        if got in ("resumed", "refused"):
            counts[got] += 1
        else:
            counts["other"] += 1
            wrong.append((k, got))
    return counts, wrong


def main() -> int:
    failed = False
    for name, values in SPECS.items():
        with tempfile.TemporaryDirectory() as tmp:
            counts, wrong = sweep(values, pathlib.Path(tmp))
        print("%s: %d resumed, %d refused, %d other" % (
            name, counts["resumed"], counts["refused"], counts["other"]))
        for k, got in wrong:
            print("  k = %d: %s" % (k, got))
        failed = failed or bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
