import json

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
