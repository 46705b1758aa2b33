"""The benchmark tracer (perfbench/tracing.py) patches functions on the
diffvar modules that reach them, including names those modules import
only so the tracer can patch them.  Removing such a name breaks traced
benchmark runs, so this checks that every patch installs and restores.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_patch_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    for index in range(2):  # a patch left behind makes the second op raise
        with tracer.op(index):
            pass
