"""Byte pins for dump_json: the exact text of literal inputs."""

import textwrap

import numpy as np
import pytest

from diffvar.diffseq import standard_sequence
from diffvar.estimator import EstimatorConfig
from diffvar.kernels import kernel
from diffvar.serialize import dump_json
from diffvar.simlab import RiskReport, RiskValue
from diffvar.smoother import SmootherConfig


def _text(block: str) -> str:
    return textwrap.dedent(block).strip("\n")


CASES = {
    "2-d ndarray": (
        np.array([[1.0, -2.5], [0.1, 3.0]]),
        """
        [
          [
            1.0,
            -2.5
          ],
          [
            0.1,
            3.0
          ]
        ]
        """,
    ),
    "numpy scalars": (
        [np.int64(7), np.float64(0.1), np.float32(0.1)],
        """
        [
          7,
          0.1,
          0.10000000149011612
        ]
        """,
    ),
    "tuple with nan and negative zero": (
        (float("nan"), -0.0),
        """
        [
          NaN,
          -0.0
        ]
        """,
    ),
    "dataclass with an array field": (
        standard_sequence("gsjs"),
        """
        {
          "coeffs": [
            0.4082482904638631,
            -0.8164965809277261,
            0.4082482904638631
          ]
        }
        """,
    ),
    "nested dataclasses": (
        SmootherConfig(0.25, 2, kernel("biweight")),
        """
        {
          "bandwidth": 0.25,
          "degree": 2,
          "expand": false,
          "kernel": {
            "kind": "biweight"
          }
        }
        """,
    ),
    "to_dict before fields": (
        EstimatorConfig(standard_sequence("first_difference"), SmootherConfig(0.25, 1)),
        """
        {
          "bandwidth": 0.25,
          "coefficients": [
            0.7071067811865475,
            -0.7071067811865475
          ],
          "degree": 1,
          "expand_to_minimum": false,
          "kernel": "epanechnikov",
          "order": 1
        }
        """,
    ),
    "risk report": (
        RiskReport(
            scenario={"label": "toy", "n": 100},
            estimator="rice",
            replications=10,
            seed=5,
            pointwise={0.3: RiskValue(0.02, 0.005, 10, 0),
                       0.7: RiskValue(0.03, float("nan"), 10, 1)},
            global_risk=RiskValue(0.25, 0.0625, 10, 0),
            grid_margin=0.05,
            grid_size=31,
        ),
        """
        {
          "estimator": "rice",
          "global": {
            "failures": 0,
            "replications": 10,
            "risk": 0.25,
            "stderr": 0.0625
          },
          "grid_margin": 0.05,
          "grid_size": 31,
          "pointwise": {
            "0.3": {
              "failures": 0,
              "replications": 10,
              "risk": 0.02,
              "stderr": 0.005
            },
            "0.7": {
              "failures": 1,
              "replications": 10,
              "risk": 0.03,
              "stderr": NaN
            }
          },
          "replications": 10,
          "scenario": {
            "label": "toy",
            "n": 100
          },
          "seed": 5
        }
        """,
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_dump_json_bytes(name):
    obj, expected = CASES[name]
    assert dump_json(obj) == _text(expected)


@pytest.mark.parametrize("obj", [object(), {"inner": [object()]}])
def test_unknown_type_names_the_type(obj):
    with pytest.raises(TypeError, match="cannot serialize object"):
        dump_json(obj)
