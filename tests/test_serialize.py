import json

import pytest

from crystalpaths import (HalfPath, LevelPath, SeqElement, Weight, ground_path,
                          left_path, lp_split, path_from_window, right_path)
from crystalpaths.serialize import decode, dumps, encode, loads

from conftest import random_binf_elements


def test_weight_roundtrip_and_key_order():
    w = Weight(2, -2, 1)
    text = dumps(w)
    assert text == '{"L0": 2, "L1": -2, "delta": 1}'
    assert loads(text) == w


def test_halfpath_roundtrip():
    b = left_path({-3: 1, -1: -2})
    data = encode(b)
    assert data == {"side": "left", "entries": {"-3": 1, "-1": -2}}
    assert decode(data) == b
    r = right_path({0: 1})
    assert decode(encode(r)) == r


def test_seq_roundtrip():
    s = SeqElement(1, (2, 1))
    assert encode(s) == {"first_color": 1, "a": [2, 1]}
    assert decode(encode(s)) == s


def test_levelpath_roundtrip():
    p = path_from_window(2, 1, -2, [1, -1, 1, -2])
    data = encode(p)
    assert data["m"] == 2 and data["l"] == 1
    assert decode(json.loads(json.dumps(data))) == p
    g = ground_path(-1, 0)
    assert decode(encode(g)) == g


def test_mod_roundtrip():
    e = lp_split(path_from_window(1, 0, -2, [1, -1, 1, -1]))
    assert decode(encode(e)) == e


def test_roundtrip_stability_bulk():
    for b in random_binf_elements(40, 8, seed=1):
        assert loads(dumps(b)) == b
        assert dumps(b) == dumps(loads(dumps(b)))


def test_decode_rejects_garbage():
    for bad in ({}, {"nope": 1}, [1, 2], {"side": "left"}):
        try:
            decode(bad)
        except ValueError:
            continue
        raise AssertionError(f"decode accepted {bad!r}")


_EMPTY_LEFT = {"side": "left", "entries": {}}
_EMPTY_RIGHT = {"side": "right", "entries": {}}


@pytest.mark.parametrize("data", [
    {"side": "left", "entries": {"-1": 1.5}},
    {"side": "left", "entries": {"-2": 1, "-1": True}},
    {"side": "right", "entries": {"0": "2"}},
    {"L0": 1, "L1": 0.0, "delta": 0},
    {"L0": 1, "L1": 0, "delta": False},
    {"first_color": True, "a": [1]},
    {"first_color": 0, "a": [1.9]},
    {"first_color": 1, "a": "12"},
    {"m": 2.7, "l": 0, "window_start": 0, "window": [2]},
    {"m": 2, "l": "1", "window_start": 0, "window": [2]},
    {"m": 2, "l": 0, "window_start": -1.0, "window": [1, 2]},
    {"m": 2, "l": 0, "window_start": -1, "window": [1, True]},
    {"b1": _EMPTY_LEFT, "lam": {"L0": 1.0, "L1": -1, "delta": 0}, "b2": _EMPTY_RIGHT},
], ids=["entry-float", "entry-bool", "entry-string", "weight-float", "weight-bool",
        "seq-color-bool", "seq-letter-float", "seq-letters-string", "level-m-float",
        "level-l-string", "level-start-float", "level-letter-bool", "marker-float"])
def test_decode_rejects_non_integer_numbers(data):
    # every number is a JSON integer; a float, a bool or a numeric string
    # is malformed, not truncated
    with pytest.raises(ValueError, match="integer"):
        decode(data)


def test_decode_reads_entry_keys_as_decimal_strings():
    assert decode({"side": "left", "entries": {"-3": 1, "-1": -2}}) == left_path({-3: 1, -1: -2})
    assert decode({"side": "right", "entries": {"2": 1}}) == right_path({2: 1})
    # int() would read these as -10, -3, -3 and 1
    for key in ("-1_0", " -3 ", "-\u0663", "+1"):
        with pytest.raises(ValueError, match="decimal"):
            decode({"side": "left" if key != "+1" else "right", "entries": {key: 1}})
