"""``python -m tests.golden [--write]``: check or regenerate digests.json."""

import argparse
import pathlib
import sys
import tempfile

from . import PATH, fingerprint, load, moved, run_specs, write


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden")
    parser.add_argument("--write", action="store_true",
                        help="regenerate %s" % PATH.name)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if args.write:
            write(pathlib.Path(tmp))
            print("wrote %s" % PATH)
            return 0
        recorded = load()
        print("fingerprint: recorded %s, here %s" % (recorded["fingerprint"],
                                                     fingerprint()))
        changed = moved(recorded["digests"], run_specs(pathlib.Path(tmp)))
    for name in changed:
        print("moved: %s" % name)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
