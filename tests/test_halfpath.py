import random

from hypothesis import example, given, settings, strategies as st

from crystalpaths import (HalfPath, LevelPath, ModElement, Weight, from_word,
                          is_extremal_by_walls, left_path, level_path, lp_split,
                          path_to_seq, right_path, seq_to_path, star_binf, star_bminf,
                          string_factorization, u_inf, u_minus_inf)
from crystalpaths import halfpath
from crystalpaths.halfpath import apply_word
from crystalpaths.weights import classical

from conftest import agree_with_oracle, left_signature, random_binf_elements, star_from

NEG_INF = float("-inf")

small_entries = st.dictionaries(
    st.integers(min_value=-6, max_value=-1),
    st.integers(min_value=-3, max_value=3).filter(lambda v: v != 0),
    max_size=5,
)


def test_highest_elements():
    assert u_inf().as_dict() == {}
    assert u_inf().wt() == Weight(0, 0, 0)
    assert u_minus_inf().side != u_inf().side
    for i in (0, 1):
        assert u_inf().eps(i) == 0
        assert u_inf().e(i) is None
        assert u_minus_inf().f(i) is None


def test_entry_validation():
    try:
        left_path({0: 1})
    except ValueError:
        pass
    else:
        raise AssertionError("left paths may differ from zero only at k <= -1")


def test_signature_is_for_left_paths_only():
    # A(1) = 0, 1, 1 at -3..-1: eps_1 is the maximum, e_1 acts at its
    # leftmost position and f_1 at its rightmost
    b = left_path({-2: 1, -1: -1})
    assert left_signature(b, 1) == {-3: 0, -2: 1, -1: 1}
    assert b.eps(1) == 1
    assert b.e(1) == left_path({-1: -1}) and b.f(1) == left_path({-2: 1})
    # a right path has no signature of its own: it carries its left view's
    # structure with eps/phi and e/f exchanged
    r = right_path({0: 1})
    assert (r.eps(1), r.phi(1)) == (r.flip().phi(1), r.flip().eps(1))
    assert r.e(1) == r.flip().f(1).flip()


def test_hand_checked_operators():
    # the path (..., 0, 1, -1)
    b = left_path({-2: 1, -1: -1})
    assert b.eps(1) == 1 and b.eps(0) == 0
    assert b.e(1).as_dict() == {-1: -1}   # raise decrements the +1 letter
    assert b.e(0) is None
    assert b.f(1).as_dict() == {-2: 1}    # lower increments the -1 letter
    assert b.f(0).as_dict() == {-3: -1, -2: 1, -1: -1}
    assert agree_with_oracle(b)


def test_f1_on_highest():
    b = u_inf().f(1)
    assert b.as_dict() == {-1: 1}
    assert b.wt() == Weight(2, -2, 0)   # -alpha_1
    c = u_inf().f(0)
    assert c.as_dict() == {-1: -1}
    assert c.wt() == Weight(-2, 2, -1)  # -alpha_0


def test_weight_formula_delta_coordinate():
    # wt = 2*(sum of entries)*(L0 - L1) + delta * sum_k k*max(i_{k-1}, -i_k)
    b = left_path({-3: 1, -2: -2, -1: 2})
    letters = b.as_dict()
    total = sum(letters.values())
    d = sum(k * max(letters.get(k - 1, 0), -letters.get(k, 0)) for k in range(-10, 1))
    assert b.wt() == Weight(2 * total, -2 * total, d)


# zeros as likely as any letter, so that paths have interior zeros and
# zeros between their last entry and position -1 (or 0)
zero_words = st.lists(st.sampled_from([0, 0, 0, -3, -2, -1, 1, 2, 3]), max_size=16)
zero_paths = st.one_of(zero_words.map(from_word),
                       zero_words.map(lambda vals: right_path(dict(enumerate(vals)))))


def dense_wt(b):
    """The weight by a scan of every position of the left view's span,
    with the view built here from the entries: 2*(sum)*(L0 - L1) plus
    delta * sum_k k * max(i_{k-1}, -i_k), negated on a right path."""
    view = b.as_dict() if b.side == "left" else {-k - 1: -v for k, v in b.entries}
    total = sum(view.values())
    d = sum(k * max(view.get(k - 1, 0), -view.get(k, 0))
            for k in range(min(view, default=0), 0))
    w = Weight(2 * total, -2 * total, d)
    return w if b.side == "left" else -w


@settings(max_examples=300, deadline=None)
@given(zero_paths)
def test_sparse_weight_matches_the_dense_scan(b):
    assert b.wt() == dense_wt(b)


def assert_canonical(b):
    """b is the path the validating constructor builds from b's side and
    entries, and its entries are sorted, nonzero and on b's side of 0."""
    public = HalfPath(b.side, b.entries)
    assert b == public and hash(b) == hash(public) and b.key() == public.key()
    assert b._left == public._left
    positions = [k for k, _ in b.entries]
    assert positions == sorted(set(positions))
    assert all(v != 0 for _, v in b.entries)
    assert all(k <= -1 if b.side == "left" else k >= 0 for k in positions)


@settings(max_examples=300, deadline=None)
@given(zero_paths, st.sampled_from([0, 1]), st.integers(min_value=-8, max_value=8))
@example(from_word([1, 1, 0]), 1, -3)  # e_1 lands on the interior zero at -1
def test_internal_results_are_canonical(b, i, n):
    # power and flip build their results with no sort or check
    results = [b.flip(), b.flip().flip(), b.power(i, n), b.flip().power(i, n)]
    if b.side == "left":
        results += [star_binf(b), star_from(b, 0), seq_to_path(path_to_seq(b, i))]
    else:
        results.append(star_bminf(b))
    for c in results:
        if c is not None:
            assert_canonical(c)


def test_public_builders_canonicalize_once(monkeypatch):
    calls = []
    canon = halfpath._canon
    monkeypatch.setattr(halfpath, "_canon", lambda entries: calls.append(entries) or canon(entries))
    assert left_path({-1: 2, -3: 0, -4: 1}).entries == ((-4, 1), (-1, 2))
    assert right_path([(2, 1), (0, -1)]).entries == ((0, -1), (2, 1))
    assert from_word([1, 0, 2]).entries == ((-3, 1), (-1, 2))
    assert len(calls) == 3


@settings(max_examples=150, deadline=None)
@given(small_entries)
def test_oracle_agreement_random_entries(entries):
    assert agree_with_oracle(left_path(entries))


def test_oracle_agreement_reachable_sample():
    for b in random_binf_elements(200, 10, seed=7):
        assert agree_with_oracle(b)


@settings(max_examples=100, deadline=None)
@given(small_entries, st.sampled_from([0, 1]))
def test_e_f_partial_inverse(entries, i):
    b = left_path(entries)
    up = b.e(i)
    if up is not None:
        assert up.f(i) == b
        assert up.wt() == b.wt() + (Weight(2, -2, 1) if i == 0 else Weight(-2, 2, 0))
    down = b.f(i)
    assert down is not None  # f is total on the limit crystal
    assert down.e(i) == b


@settings(max_examples=100, deadline=None)
@given(small_entries)
def test_eps_matches_raise_count(entries):
    # eps_i counts exactly how many times e_i applies before it vanishes
    b = left_path(entries)
    for i in (0, 1):
        n = 0
        cur = b
        while True:
            nxt = cur.e(i)
            if nxt is None:
                break
            cur = nxt
            n += 1
        assert n == b.eps(i)
        assert cur.eps(i) == 0


def test_flip_conjugates_everything():
    for b in random_binf_elements(60, 8, seed=3):
        fb = b.flip()
        assert fb.side != b.side
        assert fb.wt() == -b.wt()
        for i in (0, 1):
            assert fb.eps(i) == b.phi(i)
            assert fb.phi(i) == b.eps(i)
            be, fe = b.e(i), fb.f(i)
            assert (be is None) == (fe is None)
            if be is not None:
                assert fe == be.flip()


def test_right_path_f_is_partial():
    # on the opposite limit crystal raising is total and lowering partial
    b = u_minus_inf()
    for i in (0, 1):
        assert b.f(i) is None
        assert b.e(i) is not None


def test_walls_and_domains():
    b = left_path({-5: -1, -4: 1, -3: -2, -2: 2, -1: -2})
    # wall at k iff i_{k-1} + i_k != 0
    walls = dict(b.walls())
    expected = {}
    letters = b.as_dict()
    for k in range(-6, 0):
        s = letters.get(k - 1, 0) + letters.get(k, 0)
        if s != 0:
            expected[k] = s
    assert walls == expected
    assert b.wall_sign() in (-1, 0, 1, None)
    for start, length in b.domains():
        assert length >= 1


def dense_walls(entry, positions):
    """(k, i_{k-1} + i_k) at every k in positions where the sum is nonzero."""
    return [(k, entry(k - 1) + entry(k)) for k in positions if entry(k - 1) + entry(k)]


def expected_sign(walls):
    signs = {1 if s > 0 else -1 for _, s in walls}
    return 0 if not signs else signs.pop() if len(signs) == 1 else None


wide_entries = st.dictionaries(st.integers(min_value=0, max_value=30),
                               st.integers(min_value=-3, max_value=3), max_size=8)


@settings(max_examples=200, deadline=None)
@given(wide_entries, st.booleans())
def test_half_path_walls_match_the_dense_scan(d, left):
    b = left_path({-k - 1: v for k, v in d.items()}) if left else right_path(d)
    stored = b.as_dict()
    # a wall at position 0 belongs to neither half
    span = range(-40, 0) if left else range(1, 40)
    walls = dense_walls(lambda k: stored.get(k, 0), span)
    assert b.walls() == walls
    assert b.wall_positions() == [k for k, s in walls for _ in range(abs(s))]
    assert b.wall_sign() == expected_sign(walls)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(min_value=-20, max_value=20),
                       st.integers(min_value=-3, max_value=3), max_size=8),
       st.integers(min_value=-3, max_value=3))
def test_level_path_walls_match_the_dense_scan(d, m):
    p = level_path(m, 0, d)
    ground = lambda k: 0 if k < 0 else (-m if k % 2 else m)
    walls = dense_walls(lambda k: d.get(k, ground(k)), range(-30, 30))
    positions = [k for k, s in walls for _ in range(abs(s))]
    # the level path and its three-factor form, whose walls are read off
    # the factors' entries
    for x in (p, lp_split(p)):
        assert x.walls() == walls
        assert x.wall_positions() == positions
        assert x.wall_sign() == expected_sign(walls)


half_entries = st.dictionaries(st.integers(min_value=0, max_value=12),
                               st.integers(min_value=-3, max_value=3), max_size=6)


@settings(max_examples=300, deadline=None)
@given(half_entries, half_entries, st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-2, max_value=2))
def test_three_factor_walls_match_the_dense_scan(left, right, m, l):
    # ModElement built from the half-paths directly: its walls are those of
    # the joined letters, b1's left of 0 and b2's plus the ground pattern
    # of m from 0 on
    b1, b2 = left_path({-k - 1: v for k, v in left.items()}), right_path(right)
    x = ModElement(b1, classical(m, l), b2)
    letters1, letters2 = b1.as_dict(), b2.as_dict()
    letter = lambda k: letters1.get(k, 0) if k < 0 else letters2.get(k, 0) + (-m if k % 2 else m)
    walls = dense_walls(letter, range(-20, 20))
    assert x.walls() == walls
    assert x.wall_sign() == expected_sign(walls)


def test_wall_sign_cases():
    assert u_inf().wall_sign() == 0
    assert left_path({-1: 1}).wall_sign() == 1
    assert left_path({-1: -1}).wall_sign() == -1
    assert left_path({-2: 1, -1: 1}).wall_sign() == 1     # stacked walls
    assert left_path({-3: -1, -1: 1}).wall_sign() is None  # mixed
    # three-factor elements, whose wall at 0 is b1's letter at -1 plus
    # b2's at 0 plus m
    assert ModElement(left_path({-1: 1}), classical(-1, 0), u_minus_inf()).wall_sign() == 1  # it cancels
    assert ModElement(u_inf(), classical(-3, 0), u_minus_inf()).wall_sign() == -1  # it alone decides
    # b2's trailing wall, at 3, is the first of the other sign
    assert ModElement(u_inf(), classical(0, 0), right_path({1: 2, 2: -1})).wall_sign() is None


def test_wall_sign_reads_no_wall_listing(monkeypatch):
    # wall_sign is its own pass over the entries, not a reading of walls()
    elements = [left_path({-3: -1, -1: 1}), right_path({1: 2, 2: -1}),
                ModElement(left_path({-2: 1}), classical(2, 0), right_path({1: 1})),
                level_path(-2, 0, {-1: -1, 1: 1})]
    before = [(x.wall_sign(), is_extremal_by_walls(x)) for x in elements]
    assert [s for s, _ in before] == [None, None, 1, -1]

    def listing(self):
        raise AssertionError("walls() listed")

    for cls in (HalfPath, ModElement, LevelPath):
        monkeypatch.setattr(cls, "walls", listing)
    assert [(x.wall_sign(), is_extremal_by_walls(x)) for x in elements] == before


def test_from_word_matches_left_path():
    assert from_word([1, -1, 2]) == left_path({-3: 1, -2: -1, -1: 2})


def test_string_factorization_replays():
    for b in random_binf_elements(80, 8, seed=11):
        if b.wall_sign() in (0, None):
            continue
        word = string_factorization(b)
        # applying the recorded lowering word to the highest element
        # reproduces the path
        cur = u_inf()
        for color, power in word:
            for _ in range(power):
                cur = cur.f(color)
        assert cur == b


def test_apply_word_applies_lowering_pairs():
    out = apply_word(u_inf(), [(1, 2), (0, 1)])
    assert out == u_inf().f(1).f(1).f(0)
