"""Print the sha256 of every file the README commands write, and of
every demo's stdout.

    python tools/readme_digests.py SRC_DIR

Imports diffvar from SRC_DIR.  In a temporary directory it writes the
sample of ``generate_sample(smooth_scenario(2000), 7)`` as data.csv and
runs the five README commands through ``diffvar.cli.main``, plus
variants that reach other paths: ``estimate`` with a fixed bandwidth,
with ``--expand``, and with ``--bandwidth rate``; ``simulate`` at two
points with student-t errors; and ``rates --pointwise``.  It then runs
each script in ``demos/`` in-process and prints one
``demos/<name> <sha256 of its stdout>`` line.  Run it on two source
trees and diff the printouts to check that a change moves no output byte.

``tests/test_demos.py`` pins these digests through :func:`cli_digests`
and :func:`sha256`.  They depend on the numpy build and the LAPACK it
links as well as on diffvar: the pins were taken with numpy 2.4.6 on
OpenBLAS 0.3.31, x86-64.  A change that is meant to move output bytes
updates the pins and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
ESTIMATE = "estimate --input data.csv --output {} --bandwidth "
RATES = "rates --gamma 2 --n 512 --n 1024 --n 2048 --n 4096 --replications 50 --seed 3 "
COMMANDS = [
    ESTIMATE + "cv --seed 7",
    ESTIMATE + "0.2",
    ESTIMATE + "0.0003 --expand --degree 2",
    ESTIMATE + "rate --gamma 2",
    "simulate --n 2000 --replications 200 --seed 11 --x0 0.5 --bandwidth 0.15 --output {}",
    "simulate --n 2000 --replications 200 --seed 11 --x0 0.3 --x0 0.7 --bandwidth 0.15"
    " --error-law student_t --df 10 --output {}",
    RATES + "--output {}",
    RATES + "--pointwise 0.5 --output {}",
    "normality --n 2000 --replications 1000 --seed 2 --output {}",
    "diffseq --optimal 3 --output {}",
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests() -> list[str]:
    """``<file> <sha256>`` of data.csv and of every command's output file."""
    from diffvar.cli import main
    from diffvar.simlab import generate_sample, smooth_scenario

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            sample = generate_sample(smooth_scenario(2000), 7)
            rows = [f"{x!r},{y!r}" for x, y in zip(sample.xs.tolist(), sample.ys.tolist())]
            Path("data.csv").write_text("\n".join(["x,y"] + rows) + "\n")
            for k, command in enumerate(COMMANDS):
                output = f"out{k}.csv" if command.startswith("estimate") else f"out{k}.json"
                if main(command.format(output).split()) != 0:
                    raise RuntimeError(f"failed: diffvar {command.format(output)}")
            return [f"{path.name} {sha256(path.read_bytes())}"
                    for path in sorted(Path(".").iterdir())]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    print("\n".join(cli_digests()))
    for demo in DEMOS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(str(demo), run_name="__main__")
        print(f"demos/{demo.name}", sha256(stdout.getvalue().encode()))
