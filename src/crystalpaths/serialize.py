"""Canonical JSON encoding of the element types.

Formats (keys emitted in the listed order; output is byte-identical across
runs):

    Weight     {"L0": 1, "L1": -1, "delta": 0}
    HalfPath   {"side": "left", "entries": {"-3": 1, "-1": -2}}   keys sorted numerically
    SeqElement {"first_color": 0, "a": [2, 3]}                    a_1 first
    LevelPath  {"m": 2, "l": 0, "window_start": -3, "window": [1, -2, 2, -2]}
    ModElement {"b1": <HalfPath>, "lam": <Weight>, "b2": <HalfPath>}

decode() dispatches on the key set and raises ValueError on anything else.
"""

from __future__ import annotations

import json
from typing import Any

from .halfpath import HalfPath
from .levelpath import LevelPath, ModElement, path_from_window
from .seqreal import SeqElement
from .weights import Weight


def encode_weight(w: Weight) -> dict:
    return {"L0": w.a0, "L1": w.a1, "delta": w.d}


def encode(obj: Any) -> dict:
    if isinstance(obj, Weight):
        return encode_weight(obj)
    if isinstance(obj, HalfPath):
        return {
            "side": obj.side,
            "entries": {str(k): v for k, v in obj.entries},
        }
    if isinstance(obj, SeqElement):
        return {"first_color": obj.first_color, "a": list(obj.a)}
    if isinstance(obj, LevelPath):
        return {
            "m": obj.m,
            "l": obj.l,
            "window_start": obj.window()[0],
            "window": obj.letters(),
        }
    if isinstance(obj, ModElement):
        return {
            "b1": encode(obj.b1),
            "lam": encode_weight(obj.lam),
            "b2": encode(obj.b2),
        }
    raise TypeError(f"cannot encode {type(obj).__name__}")


def dumps(obj: Any) -> str:
    return json.dumps(encode(obj))


def decode(data: dict) -> Any:
    if not isinstance(data, dict):
        raise ValueError("element JSON must be an object")
    keys = set(data)
    if keys == {"L0", "L1", "delta"}:
        return Weight(int(data["L0"]), int(data["L1"]), int(data["delta"]))
    if keys == {"side", "entries"}:
        entries = {int(k): int(v) for k, v in data["entries"].items()}
        return HalfPath(data["side"], tuple(entries.items()))
    if keys == {"first_color", "a"}:
        return SeqElement(int(data["first_color"]), tuple(int(v) for v in data["a"]))
    if keys == {"m", "l", "window_start", "window"}:
        return path_from_window(int(data["m"]), int(data["l"]),
                                int(data["window_start"]),
                                [int(v) for v in data["window"]])
    if keys == {"b1", "lam", "b2"}:
        return ModElement(decode(data["b1"]), decode(data["lam"]), decode(data["b2"]))
    raise ValueError(f"unrecognized element keys: {sorted(keys)}")


def loads(text: str) -> Any:
    return decode(json.loads(text))
