"""Every demo script runs to completion and prints its results, and the
demos and README commands print exactly the pinned bytes.

The pins are the output of ``tools/readme_digests.py``, whose docstring
names the numpy and LAPACK build they hold for.  A change that is meant
to move output bytes updates them and says why in CHANGES.md.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TOOL = runpy.run_path(str(ROOT / "tools" / "readme_digests.py"))

DEMO_DIGESTS = {
    "01_difference_sequences.py":
        "269c606be130f97bfe0e4572de9262ee61032e9bc818f16a0627f90ca0c5688d",
    "02_variance_curve_estimation.py":
        "085b5c459f5c085be295dea4052ec82c87630307975bc4c4fcf9048074dd8bdd",
    "03_bandwidth_selection.py":
        "38fbd6b7303a2591dae925f4a83197f82d9120b5b991218cefc71d6e75bd8706",
    "04_convergence_rates.py":
        "56b42cdaa12d7feda0ae2218c4d86b24ce6f2e1075fba46e38655c36ec4740e9",
    "05_normality_diagnostics.py":
        "084b6935d719fb4ef1d8bd19d95d9869fdd83f457ffa1d922cf67ff545f00611",
    "06_rough_mean_insensitivity.py":
        "3f3131841bcfd5349d56490063be1f5a8af6214dabf637c88c4e7e47a3295b15",
}

CLI_DIGESTS = [
    "data.csv 3bb5dd2b7b24dbe1c0eb85749faa13428ae13a32470574e7de9824b02e01b0f0",
    "out0.csv f9d7167fa15161e79bc7aaedd62a64c2f2a914bd7c1a046f39c3fbfe525c2d28",
    "out0.json 53d9e7a0c1a14a60d352480ac011f50fa16d8b400178d5802f234b1d22b3b85e",
    "out1.csv 6b6f1e5a314a3cfe95c07469f842408e7d60965859aa0e7a789ddcfe75022e76",
    "out1.json 4b180ba48b3fc0102ab6031a0e1424049baf799dd9c7e821acd63b5ebb150cfb",
    "out2.csv 07935146c3645489f3e2ca6aa8d12636603a7e09921632198a831e54b4c5ace5",
    "out2.json 290e2fa92a0fd0d206dfff57b094dae2dcbd598722293e0fb7648e161cb8c7a2",
    "out3.csv 52cb6b0d63fa2589fbe9f78938a88d053987fdaf5883aaef5ae4dae8209d0836",
    "out3.json 19e39f4f459d49f5d6b8bb8b5ebf930e7d626532383ee1ba1cbf375a77555f52",
    "out4.json 160df4dddc8a63d30b3345a4938436ea9903ae6e7c206864dcf98e4fe4923e7b",
    "out5.json 88e6bd287b34f4ba6aa2d88269caaada69e5a519aae7e8c3b13b80c8a31ad1a1",
    "out6.json fdb2d7c0583bb61172df97d51d46f7316becfd9b0148bb4ce5fbe3248fed1521",
    "out7.json 0e2d014d7696c61e817e05d0ce7521f6e5ccc8a4a78af265e6c4e43cf4ac1cd8",
    "out8.json 4ba57dbf162b7e8c80a3bb076927ae87bb826e7e283a77518e4baead6344619b",
    "out9.json 1238d87e7742b81ddf28e67fc691155f1d39f3b1fb55d460948b9774f8cab19f",
]


def test_all_six_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_and_prints(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out.splitlines()) >= 5
    assert "nan" not in out
    assert TOOL["sha256"](out.encode()) == DEMO_DIGESTS[path.name]


def test_readme_command_outputs_are_the_pinned_bytes():
    assert TOOL["cli_digests"]() == CLI_DIGESTS
