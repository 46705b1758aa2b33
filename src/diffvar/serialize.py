"""Canonical JSON emission for reports.

Reports serialize through plain Python containers with sorted keys and
repr-exact floats, so equal in-memory reports produce byte-identical
JSON regardless of construction order.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

__all__ = ["plain", "dump_json"]


def plain(obj):
    """Recursively convert reports to JSON-ready builtins."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if hasattr(obj, "to_dict"):
        return plain(obj.to_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj) -> str:
    """Deterministic JSON text for a report (sorted keys, indented)."""
    return json.dumps(plain(obj), indent=2, sort_keys=True)
