"""Print the best-of-5 build time of a 101-point weight operator.

    python tools/weight_build_times.py SRC_DIR

Imports diffvar from SRC_DIR.  For each (n, h, degree) below it times
``weight_operator`` with the Epanechnikov kernel on the equispaced design
x_i = i/(n+1) over the grid linspace(0, 1, 101), and prints one line
per case.  Run it on two source trees, alternating, to compare builds
from narrow to wide windows.
"""

import os
import sys
import timeit

if len(sys.argv) != 2:
    sys.exit(__doc__)
sys.path.insert(0, os.path.abspath(sys.argv[1]))
import numpy as np  # noqa: E402

from diffvar.smoother import SmootherConfig, weight_operator  # noqa: E402

CASES = [
    (1000, 0.05, 1),
    (2000, 0.15, 1),
    (4096, 0.152, 3),
    (8192, 0.15, 1),
    (32768, 0.15, 1),
    (32768, 0.1, 3),
    (131072, 0.076, 3),
]
GRID = np.linspace(0.0, 1.0, 101)

for n, h, degree in CASES:
    xs = np.arange(1, n + 1) / (n + 1.0)
    config = SmootherConfig(h, degree)
    best = min(timeit.repeat(lambda: weight_operator(xs, config, GRID),
                             number=1, repeat=5))
    print(f"n={n:<7} h={h:<6} degree={degree}  {best * 1e3:9.2f} ms")
