"""The benchmark tracer's patch points exist in the program and come back intact.

``bench/spans.py`` wraps names in the namespaces where the program looks
them up (for example ``metrics.cross_correlate_sync``).  A renamed or deleted
name would first show up as a crash of the traced benchmark run, which this
suite does not run; this test fails instead.
"""

import importlib.util
from pathlib import Path

from otfs_sync.nn import layers

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_name():
    spans = _load_spans()
    points = [(owner, attr) for owner, attr, _ in (*spans.FUNCTIONS, *spans.METHODS)]
    points += [(layers.ResBlock, "forward"), (layers.ResBlock, "backward")]
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in points if a not in o.__dict__]
    assert missing == []
    originals = [owner.__dict__[attr] for owner, attr in points]
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = [owner.__dict__[attr] for owner, attr in points]
    finally:
        tracer.uninstall()
    assert all(p is not o for p, o in zip(patched, originals))
    restored = [owner.__dict__[attr] for owner, attr in points]
    assert all(r is o for r, o in zip(restored, originals))
