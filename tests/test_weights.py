import pytest
from hypothesis import given, strategies as st

from crystalpaths import CLW, DELTA, L0, L1, Weight, classical, orbit_canonical, simple_root

coord = st.integers(min_value=-20, max_value=20)
weights = st.builds(Weight, coord, coord, coord)


def test_basis_constants():
    assert L0 == Weight(1, 0, 0)
    assert L1 == Weight(0, 1, 0)
    assert DELTA == Weight(0, 0, 1)
    assert CLW == L0 - L1


def test_simple_roots():
    assert simple_root(1) == Weight(-2, 2, 0)
    assert simple_root(0) == Weight(2, -2, 1)
    assert simple_root(0) + simple_root(1) == DELTA


def test_pairing_ignores_delta():
    w = Weight(3, -1, 7)
    assert w.pairing(0) == Weight(3, -1, 0).pairing(0)
    assert w.pairing(1) == Weight(3, -1, 0).pairing(1)
    assert DELTA.pairing(0) == 0 and DELTA.pairing(1) == 0


def test_pairing_values():
    assert L0.pairing(0) == 1 and L0.pairing(1) == 0
    assert L1.pairing(1) == 1 and L1.pairing(0) == 0
    assert simple_root(1).pairing(1) == 2
    assert simple_root(1).pairing(0) == -2


@given(weights)
def test_level_is_pairing_with_canonical_central_element(w):
    assert w.level == w.a0 + w.a1


@given(weights, st.sampled_from([0, 1]))
def test_reflection_is_involution(w, i):
    assert w.reflect(i).reflect(i) == w


@given(weights, st.sampled_from([0, 1]))
def test_reflection_formula(w, i):
    assert w.reflect(i) == w - simple_root(i) * w.pairing(i)


@given(weights, weights)
def test_additive_group(u, w):
    assert u + w - w == u
    assert -(-u) == u
    assert u * 3 == u + u + u


def test_classical():
    assert classical(2) == Weight(2, -2, 0)
    assert classical(-1, 5) == Weight(-1, 1, 5)
    assert classical(0).level == 0


def _reference_walk(w):
    """The orbit representative walked to by reflections: s_1 once if m < 0,
    then s_0 s_1 (lowering l by |m|) or s_1 s_0 (raising it) until l lies in
    [0, |m|).  Returns (weight, word) with s_{i_k} ... s_{i_1} (w) = weight."""
    word = []
    if w.a0 == 0:
        return w, word
    if w.a0 < 0:
        w = w.reflect(1)
        word.append(1)
    while not 0 <= w.d < w.a0:
        for i in ((0, 1) if w.d >= w.a0 else (1, 0)):
            w = w.reflect(i)
            word.append(i)
    return w, word


ORBIT_GRID = [(m, l) for m in range(-6, 7) for l in range(-60, 61)]


def test_orbit_canonical_reaches_fundamental_domain():
    for m, l in ORBIT_GRID:
        w = classical(m, l)
        canon = orbit_canonical(w)
        walked, word = _reference_walk(w)
        assert canon == walked
        for i in word:
            w = w.reflect(i)
        assert w == canon


def test_orbit_canonical_fixed_points():
    fixed = set()
    for m, l in ORBIT_GRID:
        w = classical(m, l)
        if orbit_canonical(w) == w:
            fixed.add((m, l))
        assert (orbit_canonical(w) == w) == (_reference_walk(w)[1] == [])
    assert fixed == {(0, l) for l in range(-60, 61)} | {
        (m, l) for m in range(1, 7) for l in range(m)}


def test_orbit_canonical_needs_no_reflection(monkeypatch):
    def no_reflect(self, i):
        raise AssertionError("orbit_canonical reflected")

    monkeypatch.setattr(Weight, "reflect", no_reflect)
    for m in (-7, -3, -1, 1, 2, 5):
        for l in (10**18, -10**18):
            canon = orbit_canonical(classical(m, l))
            assert canon.level == 0 and canon.a0 == abs(m)
            assert 0 <= canon.d < abs(m) and (canon.d - l) % abs(m) == 0


def test_orbit_canonical_needs_level_zero():
    with pytest.raises(ValueError):
        orbit_canonical(L0)
