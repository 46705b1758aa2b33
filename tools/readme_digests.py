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
"""

import contextlib
import hashlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

if len(sys.argv) != 2:
    sys.exit(__doc__)
sys.path.insert(0, os.path.abspath(sys.argv[1]))
from diffvar.cli import main  # noqa: E402
from diffvar.simlab import generate_sample, smooth_scenario  # noqa: E402

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


with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    sample = generate_sample(smooth_scenario(2000), 7)
    rows = [f"{x!r},{y!r}" for x, y in zip(sample.xs.tolist(), sample.ys.tolist())]
    Path("data.csv").write_text("\n".join(["x,y"] + rows) + "\n")
    for k, command in enumerate(COMMANDS):
        output = f"out{k}.csv" if command.startswith("estimate") else f"out{k}.json"
        if main(command.format(output).split()) != 0:
            sys.exit(f"failed: diffvar {command.format(output)}")
    for path in sorted(Path(".").iterdir()):
        print(path.name, sha256(path.read_bytes()))

for demo in DEMOS:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(demo), run_name="__main__")
    print(f"demos/{demo.name}", sha256(stdout.getvalue().encode()))
