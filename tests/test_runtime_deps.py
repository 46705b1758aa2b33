"""numpy is the only runtime dependency: scipy serves the tests alone."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import diffvar.cli
diffvar.cli.main(["diffseq", "--optimal", "3"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_the_cli_loads_no_scipy():
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep[:5] for dep in project["dependencies"]] == ["numpy"]
