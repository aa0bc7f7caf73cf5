"""The traced benchmark run (`perfbench/tracer.py`) patches gllflow names
from outside the package.  A refactor that drops or renames one of them
would leave the per-layer metrics it feeds reading zero; this catches it
in the test suite instead."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_hook_finds_its_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert t.missing == []
