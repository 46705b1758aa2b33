"""Property test: any mutation of a valid command line fails cleanly.

Each example starts from one cheap valid argv per subcommand and then
replaces one or two flag values from a fixed pool, points
``--sequence-file`` at a malformed file, or drops a flag.  Whatever the
outcome, the exit code is a documented one, stderr holds at most one
line and no traceback, and a failed run leaves no output or temp file.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from diffvar import simlab
from diffvar.cli import main

# ints stay small, so no mutated size or count allocates much
VALUES = ["-1", "0", "1", "2", "0.5", "1.5", "nan", "inf", "1e308", "abc", ""]

BAD_SEQUENCES = {
    "dict.json": '{"a": 1}',
    "strings.json": '["a", "b"]',
    "nested.json": "[[0.7071067811865476, -0.7071067811865476]]",
    "null.json": "null",
}

# (flag, value) pairs; INPUT and OUT_* are replaced by paths in the run's
# directory, and those path flags are never mutated
BASE = {
    "estimate": [("--input", "INPUT"), ("--output", "OUT_CSV"),
                 ("--bandwidth", "0.2"), ("--degree", "1"), ("--folds", "5"),
                 ("--seed", "1"), ("--grid-size", "11"), ("--grid-min", "0.1"),
                 ("--grid-max", "0.9"), ("--order", "2")],
    "simulate": [("--n", "200"), ("--replications", "5"), ("--seed", "1"),
                 ("--bandwidth", "0.2"), ("--x0", "0.5"), ("--margin", "0.05"),
                 ("--grid-size", "11"), ("--degree", "1"),
                 ("--error-law", "student_t"), ("--df", "10"), ("--output", "OUT_JSON")],
    "rates": [("--gamma", "2"), ("--n", "100"), ("--n", "200"), ("--n", "300"),
              ("--n", "400"), ("--replications", "3"), ("--seed", "1"),
              ("--scale", "1"), ("--grid-size", "11"), ("--margin", "0.05"),
              ("--output", "OUT_JSON")],
    "normality": [("--n", "200"), ("--replications", "500"), ("--seed", "1"),
                  ("--x0", "0.5"), ("--undersmooth-scale", "4.4"), ("--degree", "1"),
                  ("--output", "OUT_JSON"), ("--draws-out", "OUT_CSV")],
    "diffseq": [("--optimal", "2"), ("--output", "OUT_JSON")],
}
PATHS = {"INPUT", "OUT_CSV", "OUT_JSON"}


@st.composite
def mutated_argv(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    pairs = list(BASE[command])
    how = draw(st.sampled_from(["values", "sequence-file", "drop"]))
    if how == "sequence-file" and command != "diffseq":
        pairs.append(("--sequence-file", draw(st.sampled_from(sorted(BAD_SEQUENCES)))))
    elif how == "drop":
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    else:
        mutable = [i for i, (_, value) in enumerate(pairs) if value not in PATHS]
        for i in draw(st.lists(st.sampled_from(mutable), min_size=1, max_size=2,
                               unique=True)):
            pairs[i] = (pairs[i][0], draw(st.sampled_from(VALUES)))
    return command, pairs


def _write_inputs(directory):
    sample = simlab.generate_sample(simlab.smooth_scenario(200), 0)
    rows = [f"{float(x)!r},{float(y)!r}" for x, y in zip(sample.xs, sample.ys)]
    with open(os.path.join(directory, "data.csv"), "w") as handle:
        handle.write("x,y\n" + "\n".join(rows) + "\n")
    for name, text in BAD_SEQUENCES.items():
        with open(os.path.join(directory, name), "w") as handle:
            handle.write(text)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(mutated_argv())
def test_mutated_argv_fails_cleanly(case):
    command, pairs = case
    with tempfile.TemporaryDirectory() as directory:
        _write_inputs(directory)
        inputs = sorted(os.listdir(directory))
        paths = {"INPUT": "data.csv", "OUT_CSV": "out.csv", "OUT_JSON": "out.json"}
        argv = [command]
        for flag, value in pairs:
            if flag == "--sequence-file" or value in paths:
                value = os.path.join(directory, paths.get(value, value))
            argv += [flag, value]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert len(err.getvalue().strip().splitlines()) <= 1
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert sorted(os.listdir(directory)) == inputs
