"""Canonical JSON encoding of the element types.

Formats (keys emitted in the listed order; output is byte-identical across
runs):

    Weight     {"L0": 1, "L1": -1, "delta": 0}
    HalfPath   {"side": "left", "entries": {"-3": 1, "-1": -2}}   keys sorted numerically
    SeqElement {"first_color": 0, "a": [2, 3]}                    a_1 first
    LevelPath  {"m": 2, "l": 0, "window_start": -3, "window": [1, -2, 2, -2]}
    ModElement {"b1": <HalfPath>, "lam": <Weight>, "b2": <HalfPath>}

decode() dispatches on the key set and raises ValueError on anything else;
every number must be a JSON integer (true, 1.5 and "2" are rejected, not
truncated), and HalfPath entry keys are decimal strings such as "-3".
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


def _int(v: Any) -> int:
    """A JSON integer field: an int that is not a bool."""
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _position(k: str) -> int:
    """A HalfPath entry key: an optional minus sign and ASCII digits (int()
    alone would also take " 1", "+1", "1_0" and non-ASCII digits)."""
    if not (k.isascii() and k.removeprefix("-").isdigit()):
        raise ValueError(f"expected a decimal integer key, got {k!r}")
    return int(k)


def decode(data: dict) -> Any:
    if not isinstance(data, dict):
        raise ValueError("element JSON must be an object")
    keys = set(data)
    if keys == {"L0", "L1", "delta"}:
        return Weight(_int(data["L0"]), _int(data["L1"]), _int(data["delta"]))
    if keys == {"side", "entries"}:
        entries = {_position(k): _int(v) for k, v in data["entries"].items()}
        return HalfPath(data["side"], entries)
    if keys == {"first_color", "a"}:
        return SeqElement(_int(data["first_color"]), tuple(_int(v) for v in data["a"]))
    if keys == {"m", "l", "window_start", "window"}:
        return path_from_window(_int(data["m"]), _int(data["l"]),
                                _int(data["window_start"]),
                                [_int(v) for v in data["window"]])
    if keys == {"b1", "lam", "b2"}:
        return ModElement(decode(data["b1"]), decode(data["lam"]), decode(data["b2"]))
    raise ValueError(f"unrecognized element keys: {sorted(keys)}")


def loads(text: str) -> Any:
    return decode(json.loads(text))
