"""Every output byte of the golden specs is the recorded one
(tests/golden; ``python -m tests.golden --write`` regenerates the record)."""

import pytest

import golden
from dramp.config import SNAPSHOT_FORMAT_VERSION, TRAJECTORY_VERSION


def test_the_record_is_of_this_trajectory_and_snapshot_format():
    # a regeneration without a version bump does not pass
    recorded = golden.load()
    assert (recorded["trajectory_version"], recorded["snapshot_format_version"]) \
        == (TRAJECTORY_VERSION, SNAPSHOT_FORMAT_VERSION)
    assert sorted(recorded["digests"]) == sorted(golden.SPECS)


def test_every_output_file_has_its_recorded_digest(tmp_path):
    recorded = golden.load()
    here = golden.fingerprint()
    if here != recorded["fingerprint"]:
        message = "arithmetic fingerprint %s, the digests were recorded under %s" % (
            here, recorded["fingerprint"])
        print(message)
        pytest.skip(message)
    assert golden.moved(recorded["digests"], golden.run_specs(tmp_path)) == []
