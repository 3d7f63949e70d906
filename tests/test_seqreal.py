import random

import pytest
from hypothesis import given, settings, strategies as st

from crystalpaths import (SeqElement, image_check, path_to_seq, seq_to_path,
                          block_transform, u_inf)
from crystalpaths import from_word as from_path_word
from crystalpaths.core import check_axioms
from crystalpaths.seqreal import is_monotone, seq_generator
from crystalpaths.weights import Weight, simple_root

from conftest import nested_sum_signature, random_binf_elements, sequence_step

colors = st.sampled_from([0, 1])
words = st.lists(st.sampled_from([0, 1]), max_size=9)


def from_word(first_color, word):
    s = seq_generator(first_color)
    for i in word:
        s = s.f(i)
    return s


def weight_by_positions(s):
    """wt of a sequence element position by position: a_p copies of
    -alpha_(color p) for every p."""
    w = Weight(0, 0, 0)
    for p in range(1, len(s.a) + 1):
        w = w - s.value(p) * simple_root(s.color(p))
    return w


raw_sequences = st.builds(lambda c, a: SeqElement(c, tuple(a)), colors,
                          st.lists(st.integers(min_value=0, max_value=5), max_size=16))
image_sequences = st.builds(lambda c, vals: path_to_seq(from_path_word(vals), c), colors,
                            st.lists(st.integers(min_value=-3, max_value=3), max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.one_of(raw_sequences, image_sequences))
def test_weight_matches_the_per_position_sum(s):
    assert s.wt() == weight_by_positions(s)
    for i in (0, 1):
        assert s.pairing(i) == s.wt().pairing(i)


def test_generator():
    g = seq_generator(0)
    assert g.a == ()
    assert g.eps(0) == 0 and g.eps(1) == 0
    assert g.e(0) is None and g.e(1) is None


def test_trailing_zeros_trimmed():
    assert SeqElement(0, (2, 1, 0, 0)).a == (2, 1)


@pytest.mark.parametrize("first_color, a", [
    (0, (1.5, 1)),
    (0, (2, 0.0)),
    (1, (True,)),
    (True, (2,)),
    (1.0, (2,)),
])
def test_constructor_rejects_what_is_not_an_int(first_color, a):
    # a float entry gave a float weight, and a bool first color serialized
    # as true, which serialize.loads rejects
    with pytest.raises(ValueError, match="must be ints"):
        SeqElement(first_color, a)


def test_color_convention():
    s = SeqElement(1, (1, 1, 1))
    assert [s.color(p) for p in (1, 2, 3, 4)] == [1, 0, 1, 0]
    t = SeqElement(0, (1,))
    assert t.color(1) == 0 and t.color(2) == 1


def test_first_lowering_steps():
    g = seq_generator(0)
    assert g.f(0).key() == ("seq", 0, (1,))
    assert g.f(1).key() == ("seq", 0, (0, 1))
    assert g.f(0).f(0).key() == ("seq", 0, (2,))


@settings(max_examples=120, deadline=None)
@given(colors, words)
def test_axioms_hold_on_reachable_elements(first_color, word):
    assert check_axioms([from_word(first_color, word)]) == []


@settings(max_examples=120, deadline=None)
@given(colors, words, colors)
def test_e_f_inverse(first_color, word, i):
    s = from_word(first_color, word)
    down = s.f(i)
    assert down.e(i) == s
    up = s.e(i)
    if up is not None:
        assert up.f(i) == s


@settings(max_examples=200, deadline=None)
@given(colors, st.lists(st.integers(min_value=0, max_value=6), max_size=12), colors)
def test_signature_matches_nested_sums(first_color, a, i):
    # eps is the maximum and e_i/f_i act at its outermost positions
    s = SeqElement(first_color, tuple(a))
    assert s.eps(i) == max(nested_sum_signature(s, i).values())
    assert s.f(i) == sequence_step(s, i, False)
    try:
        up = sequence_step(s, i, True)
    except ValueError:  # an entry of an out-of-image sequence goes negative
        with pytest.raises(ValueError):
            s.e(i)
    else:
        assert s.e(i) == up


def test_image_check_examples():
    assert image_check(SeqElement(0, (1, 2)))       # a_1, a_2 unconstrained
    assert image_check(SeqElement(0, (3, 2, 2)))    # 1*a_3 <= 2*a_2
    assert not image_check(SeqElement(0, (3, 1, 3)))  # 1*3 > 2*1
    assert image_check(seq_generator(1))


def test_image_closed_under_operators():
    rng = random.Random(5)
    for _ in range(150):
        s = seq_generator(rng.randrange(2))
        for _ in range(rng.randrange(10)):
            i = rng.randrange(2)
            s = s.f(i) if rng.random() < 0.7 else (s.e(i) or s)
        assert image_check(s)


def test_realizations_correspond():
    # lowering words act identically in both models
    rng = random.Random(9)
    for _ in range(100):
        word = [rng.randrange(2) for _ in range(rng.randrange(8))]
        s = seq_generator(0)
        b = u_inf()
        for i in word:
            s, b = s.f(i), b.f(i)
        assert seq_to_path(s) == b
        assert path_to_seq(b, 0) == s
        assert s.wt() == b.wt()
        for i in (0, 1):
            assert s.eps(i) == b.eps(i)
            assert s.phi(i) == b.phi(i)


def test_roundtrip_through_paths():
    for b in random_binf_elements(60, 8, seed=2):
        for c in (0, 1):
            s = path_to_seq(b, c)
            assert seq_to_path(s) == b
            assert image_check(s)


def test_block_transform_requires_monotone():
    assert not is_monotone(SeqElement(0, (1, 2)))
    try:
        block_transform(SeqElement(0, (1, 2)))
    except ValueError:
        pass
    else:
        raise AssertionError("non-monotone input must be rejected")


def test_block_transform_matches_path_realization_on_monotone():
    # the block transform agrees with the lowering-word correspondence
    checked = 0
    for first_color in (0, 1):
        for a1 in range(4):
            for a2 in range(a1 + 1):
                for a3 in range(a2 + 1):
                    s = SeqElement(first_color, (a1, a2, a3))
                    if not is_monotone(s):
                        continue
                    assert block_transform(s) == seq_to_path(s)
                    checked += 1
    assert checked > 10


def test_block_transform_preserves_weight():
    for vals in ((3, 2, 2, 1), (2, 2), (4,), ()):
        for c in (0, 1):
            s = SeqElement(c, vals)
            assert block_transform(s).wt() == s.wt()
