"""Canonical JSON emission for reports: sorted keys, repr-exact floats.

``dump_json`` is one ``json.dumps`` pass, so equal reports give
byte-identical JSON.  json encodes builtins itself and hands the rest
to ``_default``: an object with ``to_dict`` as its result, an ndarray
as its ``tolist()``, a numpy scalar as its Python value and a dataclass
as the dict of its fields.  Every serialized dict has string keys (json
sorts keys before it stringifies them).  Only ``RiskReport``,
``RateReport``, ``NormalityReport``, ``MeanEffectReport``, ``Scenario``
and ``EstimatorConfig`` have a ``to_dict``: their JSON is not their fields.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

__all__ = ["dump_json"]


def _default(obj):
    """What json cannot encode, as something it can; json recurses into it."""
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj) -> str:
    """Deterministic JSON text for a report (sorted keys, indented)."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_default)
