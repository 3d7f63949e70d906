import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from crystalpaths import (LevelPath, ModElement, Weight, ground_path,
                          left_path, level_path, lp_join, lp_split,
                          path_from_window, right_path, u_inf, u_lambda, u_minus_inf)
from crystalpaths.core import check_axioms
from crystalpaths.extremal import weyl_op
from crystalpaths.halfpath import LEFT, RIGHT
from crystalpaths.peterweyl import string_moves
from crystalpaths.weights import classical

from conftest import random_walk


def sample_mod_elements(count, seed=0, lams=((0, 0), (1, 0), (2, 1), (-2, 0), (3, -1))):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, l = lams[rng.randrange(len(lams))]
        out.append(random_walk(u_lambda(classical(m, l)), rng.randrange(9), rng))
    return out


def dense_level_weight(p):
    """The positional weight formula, summed over every position from one
    left of the window to two right of it (the terms vanish outside):
    (sum_k (i_{k-1} + i_k)) * (L0 - L1)
    + delta * (l + sum_k k * (max(i_{k-1}, -i_k) - max(g_{k-1}, -g_k)))."""
    a, b = p.window()
    cl = dcorr = 0
    for k in range(a - 1, b + 3):
        ik1, ik = p.entry(k - 1), p.entry(k)
        gk1, gk = p.default(k - 1), p.default(k)
        cl += ik1 + ik
        dcorr += k * (max(ik1, -ik) - max(gk1, -gk))
    return classical(cl, p.l + dcorr)


def test_ground_path_entries_and_weight():
    g = ground_path(2, 3)
    assert [g.entry(k) for k in range(-3, 4)] == [0, 0, 0, 2, -2, 2, -2]
    assert g.wt() == classical(2, 3) == dense_level_weight(g)
    assert ground_path(-1, 0).entry(0) == -1
    assert ground_path(0, 5).wt() == classical(0, 5) == dense_level_weight(ground_path(0, 5))


def test_sparse_storage_canonicalization():
    p = level_path(2, 0, {0: 2, -1: 0, 5: -2})
    # default-valued positions are dropped from the sparse table
    assert p.entries == ()
    assert p == ground_path(2, 0)


def test_path_from_window():
    p = path_from_window(1, 0, -2, [1, -1, 1, -1])
    assert p.entry(-2) == 1 and p.entry(1) == -1
    assert p.entry(-3) == 0 and p.entry(2) == 1


def test_wall_structure_of_ground_path():
    g = ground_path(2, 0)
    # single wall of multiplicity m at position 0
    assert g.walls() == [(0, 2)]
    assert g.wall_positions() == [0, 0]
    assert g.wall_sign() == 1
    assert ground_path(-3, 0).wall_sign() == -1
    assert ground_path(0, 0).wall_sign() == 0


def test_split_join_roundtrip_on_ground():
    for m in (-2, -1, 0, 1, 2, 3):
        for l in (-1, 0, 2):
            g = ground_path(m, l)
            e = lp_split(g)
            assert lp_join(e) == g
            assert e.wt() == g.wt()


def test_split_marker_constant_on_component():
    rng = random.Random(4)
    g = ground_path(2, 1)
    lam0 = lp_split(g).lam
    p = g
    seen = set()
    e = lp_split(p)
    for _ in range(200):
        i = rng.randrange(2)
        nxt = e.f(i) if rng.random() < 0.6 else e.e(i)
        if nxt is not None:
            e = nxt
        assert e.lam == lam0
        q = lp_join(e)
        assert lp_split(q) == e
        seen.add(q.key())
    assert len(seen) > 10


def test_u_lambda_weight_and_statistics():
    lam = classical(2, 0)
    u = u_lambda(lam)
    assert u.wt() == lam
    # phi_1(u) = <h_1, lam> is negative here, eps sides mirror
    assert u.eps(1) == -lam.pairing(1) or u.eps(1) >= 0
    assert check_axioms([u]) == []


def test_mod_axioms_on_random_sample():
    assert check_axioms(sample_mod_elements(120, seed=1)) == []


def test_operator_matches_path_picture():
    # operators computed on the three-factor form agree with splitting
    # after acting, for elements reached from several generators
    for e in sample_mod_elements(80, seed=6):
        p = lp_join(e)
        for i in (0, 1):
            fe = e.f(i)
            if fe is not None:
                assert lp_join(fe).wt() == p.wt() - (Weight(2, -2, 1) if i == 0 else Weight(-2, 2, 0))
            ee = e.e(i)
            if ee is not None:
                assert lp_split(lp_join(ee)) == ee


def test_weight_delta_tracks_positions():
    # moving letters left/right changes only the delta coordinate
    p = ground_path(1, 0)
    e = lp_split(p)
    down = e.f(0)
    assert down is not None
    q = lp_join(down)
    assert q.wt() == p.wt() - Weight(2, -2, 1)


def test_marker_weight_is_the_ground_weight():
    # lp_split's marker is forced by wt(p) = wt(b1) + lam + wt(b2), and
    # lp_join's delta label by wt(lp_join(e)) = wt(e); both reduce to the
    # family label (m, l).  A level path's wt is read off its factors, so
    # the positional formula is the independent reference
    rng = random.Random(3)
    for _ in range(2000):
        m, l = rng.randint(-3, 3), rng.randint(-3, 3)
        p = level_path(m, l, {rng.randint(-8, 8): rng.randint(-4, 4)
                              for _ in range(rng.randrange(8))})
        e = lp_split(p)
        assert p.wt() == dense_level_weight(p)
        assert e.lam == classical(m, l) == p.wt() - e.b1.wt() - e.b2.wt()
        b1 = left_path({rng.randint(-8, -1): rng.randint(-4, 4)
                        for _ in range(rng.randrange(6))})
        b2 = right_path({rng.randint(0, 8): rng.randint(-4, 4)
                         for _ in range(rng.randrange(6))})
        e = ModElement(b1, classical(m, l), b2)
        q = lp_join(e)
        assert q.wt() == e.wt() == dense_level_weight(q) and q.l == l
        assert lp_split(q) == e


@pytest.mark.parametrize("build, entries", [
    (left_path, [(-1, 1), (-1, 2)]),
    (left_path, [(-2, 0), (-2, 1)]),
    (right_path, [(3, 1), (3, 0)]),
    (right_path, [(0, 0), (0, 0)]),
    (partial(LevelPath, 2, 0), ((0, 1), (0, 3))),
    (partial(LevelPath, 2, 0), ((0, 2), (0, 2))),  # the default letter at 0
    (partial(LevelPath, 1, 0), [(-1, 0), (-1, 1)]),
])
def test_constructors_reject_a_position_listed_twice(build, entries):
    # zero and default values count too: a position kept twice printed as
    # one path and keyed as another
    with pytest.raises(ValueError, match="listed twice"):
        build(entries)


@pytest.mark.parametrize("build, entries", [
    (left_path, {-1: 1.5}),
    (left_path, {-1.0: 1}),
    (left_path, [(-1, True)]),
    (right_path, {0: 2.0}),
    (right_path, {False: 1}),
    (partial(LevelPath, 2, 0), {-1: True}),
    (partial(LevelPath, 2, 0), ((0.0, 1),)),
    (partial(LevelPath, 2.5, 0), ()),
    (partial(LevelPath, 2, 0.5), ()),
    (partial(LevelPath, True, 0), ()),
])
def test_constructors_reject_what_is_not_an_int(build, entries):
    # a float value gave a float weight and a float position a float
    # delta; a bool is not an int here either
    with pytest.raises(ValueError, match="must be ints"):
        build(entries)


def test_mod_element_rejects_swapped_sides():
    g = lp_split(ground_path(1, 0))
    for b1, b2 in ((g.b2, g.b2), (g.b1, g.b1), (g.b2, g.b1)):
        with pytest.raises(ValueError):
            ModElement(b1, g.lam, b2)


def test_mod_element_rejects_a_marker_that_is_not_a_weight():
    g = lp_split(ground_path(1, 0))
    for marker in (u_inf(), u_minus_inf(), (0, 0, 0), None):
        with pytest.raises(ValueError, match="must be a Weight"):
            ModElement(g.b1, marker, g.b2)


def test_lp_join_rejects_nonzero_level_marker():
    try:
        bad = ModElement(lp_split(ground_path(1, 0)).b1, Weight(1, 0, 0),
                         lp_split(ground_path(1, 0)).b2)
        lp_join(bad)
    except ValueError:
        pass
    else:
        raise AssertionError("marker of nonzero level must be rejected")


level_paths = st.builds(LevelPath, st.integers(min_value=-4, max_value=4),
                        st.integers(min_value=-2, max_value=2),
                        st.dictionaries(st.integers(min_value=-12, max_value=12),
                                        st.integers(min_value=-4, max_value=4), max_size=10))


def public_split(p):
    """lp_split through the public constructors, which sort, drop zeros
    and check every entry again."""
    b1 = left_path([(k, v) for k, v in p.entries if k < 0])
    b2 = right_path([(k, v - p.default(k)) for k, v in p.entries if k >= 0])
    return ModElement(b1, classical(p.m, p.l), b2)


def assert_built_as_the_constructor_builds(e, ref):
    assert e == ref and hash(e) == hash(ref) and e.key() == ref.key()
    assert (e.b1.side, e.b2.side) == (LEFT, RIGHT)
    assert (e.b1._left, e.b2._left) == (ref.b1._left, ref.b2._left)


@settings(max_examples=300, deadline=None)
@given(level_paths)
def test_split_builds_what_the_public_constructors_build(p):
    e = lp_split(p)
    assert_built_as_the_constructor_builds(e, public_split(p))
    assert lp_join(e) == p


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([0, 1]),
       st.integers(min_value=-6, max_value=6))
def test_strings_build_what_the_constructor_builds(seed, i, n):
    # power, arrows, string_moves and weyl_op build their results without
    # the constructor's checks; ref carries b's marker weight
    b = sample_mod_elements(1, seed)[0]
    images = [b.power(i, n), *b.arrows(i), weyl_op(b, i)]
    images += [c for _, c in string_moves(b)]
    for c in images:
        if c is None:
            continue
        ref = ModElement(left_path(c.b1.entries), b.lam, right_path(c.b2.entries))
        assert_built_as_the_constructor_builds(c, ref)
