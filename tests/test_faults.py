"""A full disk is named and resumable (faults.py holds the model and the
sweep; ``python -m tests.faults`` runs it at every k of each mode and
codec)."""

import pytest

from dramp.driver import _SuiteFiles, run_simulation
from faults import SPECS, DiskFull, full_disk, spec_in, sweep


@pytest.mark.parametrize("name,stride", [
    ("serial-ascii", 1),  # DR 1: every k
    ("forkjoin-binary", 7),
    ("multichain-ascii", 7),
])
def test_every_fault_raises_io_failure_and_then_resumes_or_is_refused(
    tmp_path, name, stride
):
    counts, wrong = sweep(SPECS[name], tmp_path, stride)
    assert wrong == []
    # the report is written last: only a failing close of the complete
    # report leaves a run that the rerun refuses
    assert counts["resumed"] > 0 and counts["refused"] == 1


class Interrupt(RuntimeError):
    """Raised from an event callback to stop a run."""


def test_a_callback_error_under_a_full_disk_reaches_the_caller(tmp_path):
    # from the callback's raise on, every write, flush and close fails:
    # the pending rows' write and both closes on the way out
    disk = DiskFull()

    def stop(event):
        if event[0] == "row_final" and event[1] >= 350:
            disk.fail_at = disk.count + 1
            raise Interrupt()

    spec = spec_in(SPECS["serial-ascii"], tmp_path / "run")
    with full_disk(disk), pytest.raises(Interrupt):
        run_simulation(spec, on_event=stop)
    assert disk.count - disk.fail_at >= 2


def test_both_files_close_whatever_the_pending_write_raises(tmp_path, monkeypatch):
    spec = spec_in(SPECS["serial-ascii"], tmp_path / "run")
    sw = _SuiteFiles(spec, 2, append=False)

    def interrupted():
        raise KeyboardInterrupt()

    monkeypatch.setattr(sw, "flush", interrupted)
    with pytest.raises(KeyboardInterrupt), sw:
        pass
    assert sw.writer._fh.closed and sw.progress._fh.closed
