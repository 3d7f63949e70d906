"""Whole-string operators against their single-step reference.

power(i, n) is the one operator of every element type: a string rule on
half-paths and sequences (the signature rule in one sweep), tensor
products (the tensor rule for strings), duals, three-factor elements and
closed forms on the elementary crystals.  conftest.single_steps, a loop of
single steps by their definitions (the raw tensor tie-break, dense
signatures rescanned at every step), is the reference: every string rule
must return the same element, by key, and None exactly where the
reference does.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from crystalpaths import (LevelPath, SeqElement, from_word, left_path, lp_split, path_to_seq,
                          right_path, u_inf)
from crystalpaths.extremal import _locally_extremal, weyl_op
from crystalpaths.halfpath import HalfPath
from crystalpaths.levelpath import ModElement, string_moves
from crystalpaths.weights import Weight, classical

from conftest import (left_signature, nested_sum_signature, single_step, single_steps,
                      stepwise_power)
from crystals import DualElement, TElement, TensorElement, oracle_letters, tensor_oracle

colors = st.sampled_from([0, 1])
powers = st.integers(min_value=-8, max_value=8)
# the length first, so that long words are as frequent as short ones
letters = st.integers(min_value=0, max_value=24).flatmap(
    lambda n: st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
left_paths = letters.map(from_word)
right_paths = letters.map(lambda vals: right_path(dict(enumerate(vals))))
markers = st.builds(lambda m, l: TElement(classical(m, l)),
                    st.integers(min_value=-4, max_value=4),
                    st.integers(min_value=-2, max_value=2))
mods = st.builds(lambda b1, m, l, b2: ModElement(b1, classical(m, l), b2),
                 left_paths, st.integers(min_value=-4, max_value=4),
                 st.integers(min_value=-2, max_value=2), right_paths)


def key_of(b):
    return None if b is None else b.key()


def assert_matches_single_steps(b, i, n):
    assert key_of(b.power(i, n)) == key_of(single_steps(b, i, n))


@settings(max_examples=200, deadline=None)
@given(st.one_of(left_paths, right_paths), colors, powers)
def test_half_path_strings_match_single_steps(b, i, n):
    assert_matches_single_steps(b, i, n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(left_paths, right_paths), colors, st.integers(min_value=-30, max_value=30))
def test_half_path_strings_match_the_stepwise_rescan(b, i, n):
    assert key_of(b.power(i, n)) == key_of(stepwise_power(b, i, n))


# few entries far apart: zero runs of many positions between them, where
# only a run's outer end can act
sparse_values = st.dictionaries(st.integers(min_value=0, max_value=59),
                                st.integers(min_value=-4, max_value=4), max_size=6)
sparse_paths = st.one_of(sparse_values.map(lambda d: left_path({-k - 1: v for k, v in d.items()})),
                         sparse_values.map(right_path))


@settings(max_examples=300, deadline=None)
@given(sparse_paths, colors, st.integers(min_value=-40, max_value=40))
def test_sparse_half_path_strings_match_the_stepwise_rescan(b, i, n):
    assert key_of(b.power(i, n)) == key_of(stepwise_power(b, i, n))


@settings(max_examples=300, deadline=None)
@given(st.one_of(left_paths, right_paths, sparse_paths), colors, st.sampled_from([-1, 1]))
def test_single_steps_match_the_single_step_definition(b, i, n):
    # a string of one step takes a kernel of its own (halfpath._step)
    assert key_of(b.power(i, n)) == key_of(single_step(b, i, n < 0))
    assert key_of((b.e if n < 0 else b.f)(i)) == key_of(single_step(b, i, n < 0))


def test_strings_at_the_ends_of_zero_runs():
    # A_{-1}(1) = 0 on the generator, and every step of f_1 acts there again
    assert u_inf().power(1, 5) == left_path({-1: 5})
    # A(1) = 0, 1, 3, 4 at -4..-1: e_1 acts first at the zero at -1, then
    # twice at -2, the new leftmost maximum
    b = from_word([1, 1, 0])
    assert b.power(1, -3) == left_path({-3: 1, -2: -1, -1: -1})
    assert b.power(1, -3) == stepwise_power(b, 1, -3)
    # A(1) = 2 across the zeros -5..-3 and lower elsewhere: f_1 acts at the
    # run's right end, e_1 at its left end
    b = left_path({-6: 1, -2: -1})
    assert b.f(1) == left_path({-6: 1, -3: 1, -2: -1})
    assert b.e(1) == left_path({-6: 1, -5: -1, -2: -1})
    for n in (2, 3, -2, -3):
        assert b.power(1, n) == stepwise_power(b, 1, n)


def long_random_paths(count: int, seed: int):
    """count left paths of 24 to 40 letters drawn like the star_long
    benchmark's: a nonzero first letter, then letters in -3..3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        word = [rng.choice((-3, -2, -1, 1, 2, 3))]
        word += [rng.randint(-3, 3) for _ in range(rng.randint(23, 39))]
        out.append(from_word(word))
    return out


def signature_levels(b, i) -> int:
    """The number of values of the signature from its minimum to its
    maximum, on a right path that of its left view: an f string on the
    left view or the sequence longer than that puts steps left over on
    its first record."""
    if isinstance(b, SeqElement):
        sig = nested_sum_signature(b, i)
    else:
        sig = left_signature(b if b.side == "left" else b.flip(), i)
    return max(sig.values()) - min(sig.values()) + 1


def test_strings_of_long_paths_and_their_sequences_match_single_steps():
    # the Hypothesis strategies stop at 24 letters and 12 entries; here the
    # paths are as long as the star_long benchmark's, with their flips and
    # their sequences, and the strings run past every signature level
    for b in long_random_paths(30, 35_0601):
        for x in (b, b.flip(), path_to_seq(b, 0), path_to_seq(b, 1)):
            for i in (0, 1):
                longest = max(12, signature_levels(x, i) + 2)
                for step in (1, -1):
                    cur = x
                    for n in range(step, step * (longest + 1), step):
                        if cur is not None:
                            cur = single_step(cur, i, step < 0)
                        assert key_of(x.power(i, n)) == key_of(cur)
                k = x.eps(i)
                assert top_outcome(lambda: x.top(i)) == ("element", k, key_of(x.power(i, -k)))


def outcome(run):
    try:
        return ("element", key_of(run()))
    except ValueError:
        return ("ValueError",)


# raw entry lists are mostly outside the image; peeled paths lie inside it
raw_sequences = st.builds(lambda c, a: SeqElement(c, tuple(a)), colors,
                          st.lists(st.integers(min_value=0, max_value=3), max_size=12))
image_sequences = st.builds(lambda c, vals: path_to_seq(from_word(vals), c), colors,
                            st.lists(st.integers(min_value=-3, max_value=3), max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(raw_sequences, st.integers(min_value=-12, max_value=12)),
                 st.tuples(image_sequences, st.integers(min_value=-24, max_value=24))), colors)
def test_sequence_strings_match_single_steps(string, i):
    # every prefix of the string too, so a ValueError (an entry of an
    # out-of-image sequence going negative) comes at the same step
    s, n = string
    step = 1 if n > 0 else -1
    cur, expect = s, ("element", s.key())  # single steps up to the prefix
    for k in range(0, n + step, step):
        assert outcome(lambda: s.power(i, k)) == expect
        if cur is not None:
            try:
                cur = single_step(cur, i, n < 0)
                expect = ("element", key_of(cur))
            except ValueError:
                cur, expect = None, ("ValueError",)


def test_sequence_strings_raise_where_an_entry_goes_negative():
    # Ahat at position 1 is eps_0 = 2 with a_1 = 0: the first e_0 fails,
    # before the string of length 3 would run out
    s = SeqElement(0, (0, 0, 1))
    for n in (-1, -3):
        with pytest.raises(ValueError):
            single_steps(s, 0, n)
        with pytest.raises(ValueError):
            s.power(0, n)


def top_outcome(run):
    try:
        k, b = run()
        return ("element", k, key_of(b))
    except ValueError:
        return ("ValueError",)


tensors = st.builds(TensorElement, st.one_of(left_paths, right_paths, mods),
                    st.one_of(left_paths, right_paths))
duals = st.one_of(left_paths, right_paths, mods).map(DualElement)


@settings(max_examples=400, deadline=None)
@given(st.one_of(left_paths, right_paths, sparse_paths, raw_sequences, image_sequences,
                 mods, tensors, duals), colors)
def test_top_matches_eps_and_power(b, i):
    # one sweep on half-paths and sequences, eps then power elsewhere; a
    # raw sequence raises ValueError exactly where power does
    def reference():
        k = b.eps(i)
        return k, b.power(i, -k)

    out = top_outcome(lambda: b.top(i))
    assert out == top_outcome(reference)
    if out[:2] == ("element", 0) and isinstance(b, (HalfPath, SeqElement)):
        assert b.top(i)[1] is b  # the sweeps build nothing at the top


def test_top_of_sequences_raises_where_power_does():
    s = SeqElement(0, (0, 0, 1))
    assert s.eps(0) == 2
    with pytest.raises(ValueError):
        s.power(0, -2)
    with pytest.raises(ValueError):
        s.top(0)


@settings(max_examples=150, deadline=None)
@given(mods, colors, powers)
def test_mod_element_strings_match_single_steps(b, i, n):
    assert_matches_single_steps(b, i, n)


@settings(max_examples=100, deadline=None)
@given(letters, colors, powers)
def test_tensor_oracle_strings_match_single_steps(vals, i, n):
    assert_matches_single_steps(tensor_oracle(from_word(vals).as_dict(), len(vals) + 2), i, n)


@settings(max_examples=100, deadline=None)
@given(st.one_of(left_paths, right_paths, mods), colors, powers)
def test_dual_strings_match_single_steps(b, i, n):
    assert_matches_single_steps(DualElement(b), i, n)


@settings(max_examples=150, deadline=None)
@given(st.one_of(markers, left_paths, right_paths), markers,
       st.one_of(markers, left_paths, right_paths), colors, powers)
def test_tensor_strings_with_infinite_statistics_match_single_steps(x, t, y, i, n):
    # TElement factors have eps = phi = -inf on both colors
    assert_matches_single_steps(TensorElement(t, t), i, n)
    assert_matches_single_steps(TensorElement(x, t), i, n)
    assert_matches_single_steps(TensorElement(t, y), i, n)
    assert_matches_single_steps(TensorElement(TensorElement(x, t), y), i, n)


@settings(max_examples=100, deadline=None)
@given(letters, colors, powers)
def test_left_path_strings_match_the_tensor_oracle(vals, i, n):
    # the oracle word shares no code with the signature rule; its width
    # leaves room for the n letters f_i^n may add on the left.  The single
    # steps are checked on every example: a string of one step is one
    # argmax, a path of its own in the kernel
    b = from_word(vals)
    word = tensor_oracle(b.as_dict(), len(vals) + 10)
    for m in {n, -1, 1}:
        t = single_steps(word, i, m)
        out = b.power(i, m)
        assert (out is None) == (t is None)
        if out is not None:
            assert out.as_dict() == oracle_letters(t)


def flip_reference(r, i):
    """wt, eps_i, phi_i of a right path through its flip, by the
    definitions the right paths were first given: the flipped left path's
    weight is 2*(sum of entries)*(L0 - L1) + delta * sum_k k*max(i_{k-1}, -i_k),
    its eps_i the maximum of its signature, its phi_i = eps_i + <h_i, wt>,
    and flipping negates the weight and exchanges eps and phi."""
    left = r.flip().as_dict()
    lo = min(left, default=0)
    total = sum(left.values())
    d = sum(k * max(left.get(k - 1, 0), -left.get(k, 0)) for k in range(lo, 0))
    wt = Weight(2 * total, -2 * total, d)
    sgn = 1 if i == 1 else -1
    signature, running = [0], 0
    for k in range(lo, 0):
        signature.append(sgn * (left.get(k, 0) + 2 * running))
        running += left.get(k, 0)
    eps = max(signature)
    return -wt, eps + wt.pairing(i), eps


@settings(max_examples=200, deadline=None)
@given(right_paths, colors)
def test_right_path_statistics_match_the_flip(r, i):
    assert (r.wt(), r.eps(i), r.phi(i)) == flip_reference(r, i)
    up = r.flip().f(i)
    assert key_of(r.e(i)) == key_of(up.flip())
    down = r.flip().e(i)
    assert key_of(r.f(i)) == key_of(None if down is None else down.flip())


@settings(max_examples=200, deadline=None)
@given(left_paths, colors)
def test_left_path_phi_needs_no_delta_sum(b, i):
    assert b.phi(i) == max(left_signature(b, i).values()) + b.wt().pairing(i)


def tensor_route(b):
    """A ModElement as the nested tensor product it stands for, the route
    its operators took before they worked on the three factors directly."""
    return TensorElement(TensorElement(b.b1, TElement(b.lam)), b.b2)


def untensor(t):
    return None if t is None else ModElement(t.left.left, t.left.right.lam, t.right)


def tensor_string_moves(t):
    """string_moves' pairs read off the tensor route: E_i = e_i^eps_i and
    F_i = f_i^phi_i with phi_i = eps_i + <h_i, wt>."""
    out = []
    for i in (0, 1):
        eps = t.eps(i)
        phi = eps + t.pairing(i)
        out.append((("e", i, eps), key_of(untensor(t.power(i, -eps))) if eps else None))
        out.append((("f", i, phi), key_of(untensor(t.power(i, phi))) if phi else None))
    return out


@settings(max_examples=200, deadline=None)
@given(mods, colors, powers)
def test_mod_element_operators_match_the_tensor_route(b, i, n):
    # the call sites that read ModElement's statistics once per color too:
    # string_moves, weyl_op, _locally_extremal and arrows
    t = tensor_route(b)
    assert (b.eps(i), b.phi(i)) == (t.eps(i), t.phi(i))
    assert key_of(b.power(i, n)) == key_of(untensor(t.power(i, n)))
    assert key_of(b.e(i)) == key_of(untensor(t.e(i)))
    assert key_of(b.f(i)) == key_of(untensor(t.f(i)))
    assert tuple(map(key_of, b.arrows(i))) == (key_of(untensor(t.e(i))),
                                               key_of(untensor(t.f(i))))
    assert [(move, key_of(c)) for move, c in string_moves(b)] == tensor_string_moves(t)
    assert weyl_op(b, i).key() == key_of(untensor(t.power(i, t.pairing(i))))
    assert _locally_extremal(b) == all(t.eps(j) == max(0, -t.pairing(j)) for j in (0, 1))


def arrows_outcome(run):
    try:
        return tuple(map(key_of, run()))
    except ValueError:
        return ("ValueError",)


@settings(max_examples=200, deadline=None)
@given(st.one_of(mods, left_paths, right_paths, raw_sequences, image_sequences), colors)
def test_arrows_are_e_and_f(b, i):
    assert arrows_outcome(lambda: b.arrows(i)) == arrows_outcome(lambda: (b.e(i), b.f(i)))


def dense_statistics(b, i):
    """eps_i, phi_i of a half-path by the definitions with a dense scan:
    the signature A_k(i) = sgn(i) * (j_k + 2 * sum_{m<k} j_m) of the left
    view j at every position from one left of its support to -1, its
    maximum, and <h_i, wt> from the full weight."""
    view = b.as_dict() if b.side == "left" else b.flip().as_dict()
    sgn = 1 if i == 1 else -1
    top, running = 0, 0
    for k in range(min(view, default=0), 0):
        top = max(top, sgn * (view.get(k, 0) + 2 * running))
        running += view.get(k, 0)
    n = b.wt().pairing(i)
    return (top, top + n) if b.side == "left" else (top - n, top)


@settings(max_examples=300, deadline=None)
@given(st.one_of(left_paths, right_paths), colors)
def test_one_pass_statistics_match_the_dense_scan(b, i):
    assert (b.eps(i), b.phi(i)) == dense_statistics(b, i)
    assert b.pairing(i) == b.wt().pairing(i)
    if b.side == "left":
        assert b.eps(i) == max(left_signature(b, i).values())


split_paths = st.builds(LevelPath, st.integers(min_value=-4, max_value=4),
                        st.integers(min_value=-2, max_value=2),
                        st.dictionaries(st.integers(min_value=-12, max_value=12),
                                        st.integers(min_value=-4, max_value=4), max_size=10)
                        ).map(lp_split)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mods, split_paths))
def test_mod_element_weight_is_the_sum_of_its_factors(b):
    # wt() reads both factors' entries into one Weight; the reference is
    # the sum of the three weights
    assert b.wt() == b.b1.wt() + b.lam + b.b2.wt()


@settings(max_examples=200, deadline=None)
@given(st.one_of(mods, markers, letters.map(lambda vals: tensor_oracle(
    from_word(vals).as_dict(), len(vals) + 2))), colors)
def test_pairing_matches_the_weight(b, i):
    assert b.pairing(i) == b.wt().pairing(i)
