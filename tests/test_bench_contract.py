"""The benchmark's tracer (bench/spans.py) patches dramp functions by name.

A refactor that removes or renames one of them fails here, instead of only
when someone runs ``bench/run.py --trace 1``.
"""

import pathlib

import dramp.driver

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_tracer_patches_and_restores_every_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    points = [(owner, attr) for owner, attr, _ in spans.PATCH_POINTS]
    points += [(dramp.driver, "write_snapshot"), (dramp.driver, "make_target")]
    originals = [getattr(owner, attr) for owner, attr in points]
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = [getattr(owner, attr) for owner, attr in points]
    finally:
        tracer.uninstall()
    assert all(new is not old for new, old in zip(patched, originals))
    restored = [getattr(owner, attr) for owner, attr in points]
    assert all(now is old for now, old in zip(restored, originals))
