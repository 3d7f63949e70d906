import random
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from crystalpaths import (from_word, left_path, path_to_seq, seq_to_path, lp_join, lp_split, path_from_window,
                          star_binf, star_bminf, star_extremal_closed,
                          star_half_closed, star_mod, starred_e, starred_f,
                          u_inf, u_lambda, u_minus_inf)
from crystalpaths.core import CrystalElement, bfs_component, check_axioms, peel
from crystalpaths import halfpath
from crystalpaths.halfpath import HalfPath, apply_word, right_path
from crystalpaths.levelpath import ModElement
from crystalpaths.seqreal import SeqElement
from crystalpaths.weights import classical

from conftest import random_binf_elements, random_walk, star_from


def sample_mods(count, seed, lams=((0, 0), (1, 0), (2, 0), (2, 1), (-1, 0))):
    rng = random.Random(seed)
    return [random_walk(u_lambda(classical(*lams[rng.randrange(len(lams))])),
                        rng.randrange(7), rng)
            for _ in range(count)]


def test_star_fixes_the_generator():
    assert star_binf(u_inf()) == u_inf()
    assert star_bminf(u_minus_inf()) == u_minus_inf()


def test_star_small_examples():
    # single f_1: (...,0,1) is star-fixed; alternating pairs swap letters
    b = u_inf().f(1)
    assert star_binf(b) == b
    c = left_path({-2: -2, -1: 2})
    assert star_binf(c) == left_path({-2: 2, -1: -2})


def test_star_is_an_involution_on_binf():
    for b in random_binf_elements(80, 9, seed=1):
        assert star_binf(star_binf(b)) == b


def test_star_preserves_weight_on_binf():
    for b in random_binf_elements(80, 9, seed=2):
        assert star_binf(b).wt() == b.wt()


def test_star_peel_order_independent():
    for b in random_binf_elements(50, 8, seed=3):
        assert star_from(b, 0) == star_binf(b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), max_size=24),
       st.sampled_from([0, 1]))
def test_peel_conversions_and_star_invert_on_long_paths(letters, c):
    b = from_word(letters)
    assert apply_word(u_inf(), reversed(peel(b, c))) == b
    assert seq_to_path(path_to_seq(b, c)) == b
    assert star_from(b, c) == star_binf(b)
    assert star_binf(star_binf(b)) == b


def test_star_conjugates_string_statistics():
    # eps_i(b*) counts the leading f_i power of the lowering word of b
    b = u_inf().f(1).f(1).f(0)
    s = star_binf(b)
    assert s.eps(1) >= 0
    assert star_binf(s) == b


def test_star_bminf_via_flip():
    for b in random_binf_elements(40, 8, seed=4):
        r = b.flip()
        assert star_bminf(r) == star_binf(b).flip()


def test_closed_form_half_star_matches_peeling():
    checked = 0
    for b in random_binf_elements(300, 9, seed=5):
        if b.wall_sign() is None:
            continue
        assert star_half_closed(b) == star_binf(b)
        assert star_half_closed(b.flip()) == star_bminf(b.flip())
        checked += 1
    assert checked > 100


def uniform_wall_left_path(walls, sign):
    """The left path, zero left of its first wall, whose walls sit at the
    given positions (repeated for multiplicity) and all carry the given
    sign: i_k = sign * mult(k) - i_{k-1}."""
    entries, prev = {}, 0
    for k in range(min(walls), 0):
        prev = sign * walls.count(k) - prev
        entries[k] = prev
    return left_path(entries)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-80, max_value=-1), min_size=1, max_size=16),
       st.sampled_from([-1, 1]))
def test_closed_form_half_star_matches_peeling_on_long_paths(walls, sign):
    b = uniform_wall_left_path(walls, sign)
    assert b.wall_sign() == sign
    assert star_half_closed(b) == star_binf(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n)))
def test_star_is_a_weight_preserving_involution_on_long_paths(letters):
    b = from_word(letters)
    s = star_binf(b)
    assert s.wt() == b.wt()
    assert star_binf(s) == b


def test_star_and_conversions_take_no_single_sequence_steps(monkeypatch):
    # the peel of the sequence form and the lowering into it apply whole
    # strings; a loop of single steps would call e/f per step
    calls = []
    for name in ("e", "f"):
        step = getattr(SeqElement, name)
        monkeypatch.setattr(SeqElement, name,
                            lambda self, i, step=step, name=name: calls.append(name) or step(self, i))
    rng = random.Random(8)
    b = from_word([rng.randint(-3, 3) for _ in range(80)])
    s = star_binf.__wrapped__(b)  # past the cache
    assert seq_to_path(path_to_seq(s, 0)) == s
    assert calls == []
    assert star_binf.__wrapped__(s) == b


def test_star_and_conversions_read_eps_once_per_peel(monkeypatch):
    # every string of a peel is one top, which reads eps_i in its own sweep;
    # eps is read on its own only to check the other color when the first
    # string is empty, at most once per peel
    calls = []
    statistics, seq_eps = halfpath._statistics, SeqElement.eps
    monkeypatch.setattr(halfpath, "_statistics",
                        lambda view, i: calls.append("path") or statistics(view, i))
    monkeypatch.setattr(SeqElement, "eps", lambda self, i: calls.append("seq") or seq_eps(self, i))
    rng = random.Random(8)
    b = from_word([rng.randint(-3, 3) for _ in range(80)])
    s = star_binf.__wrapped__(b)  # peels b, then its star's sequence form
    assert seq_to_path(path_to_seq(s, 0)) == s  # peels s, then its sequence form
    assert calls.count("path") <= 2 and calls.count("seq") <= 2
    calls.clear()
    assert star_binf.__wrapped__(s) == b
    assert calls.count("path") <= 1 and calls.count("seq") <= 1


def test_warm_star_builds_no_validated_paths(monkeypatch):
    # with the star cache warm, star_mod reads the marker off the entries
    # and star_bminf flips through stored views: no path goes through the
    # validating constructor or its sort
    mods = sample_mods(40, seed=12)
    assert any(e.b2.entries for e in mods)
    for e in mods:
        star_mod(e)
    calls = []
    post, canon = HalfPath.__post_init__, halfpath._canon
    monkeypatch.setattr(HalfPath, "__post_init__", lambda self: calls.append("post") or post(self))
    monkeypatch.setattr(halfpath, "_canon", lambda entries: calls.append("canon") or canon(entries))
    left_path({-1: 1})
    assert calls == ["post", "canon"]  # the counters see a validated construction
    calls.clear()
    for e in mods:
        star_mod(e)
        star_bminf(e.b2)
    assert calls == []


def test_star_mod_relations():
    for e in sample_mods(80, seed=6):
        s = star_mod(e)
        assert star_mod(s) == e
        assert s.wt() == -e.lam
        assert s.lam == -e.wt()


def test_starred_operators_conjugate():
    for e in sample_mods(40, seed=7):
        for i in (0, 1):
            se = starred_e(e, i)
            if se is not None:
                assert se == star_mod(star_mod(e).e(i))
                assert se.wt() == e.wt()  # starred ops move the marker only
            sf = starred_f(e, i)
            if sf is not None:
                assert sf.wt() == e.wt()
                back = starred_e(sf, i)
                assert back == e


def test_starred_and_plain_operators_commute():
    for e in sample_mods(30, seed=8):
        for i in (0, 1):
            for j in (0, 1):
                a = e.f(i)
                a = starred_f(a, j) if a is not None else None
                b = starred_f(e, j)
                b = b.f(i) if b is not None else None
                assert a == b


# -- Hypothesis properties of the two crystal structures on ModElements -------

short_letters = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
mods = st.builds(lambda b1, m, l, b2: ModElement(b1, classical(m, l), b2),
                 short_letters.map(from_word), st.integers(min_value=-3, max_value=3),
                 st.integers(min_value=-2, max_value=2),
                 short_letters.map(lambda vals: right_path(dict(enumerate(vals)))))
colors = st.sampled_from([0, 1])
kinds = st.sampled_from(["e", "f"])


@dataclass(frozen=True)
class Starred(CrystalElement):
    """A ModElement under the starred structure: that of its star image,
    carried back through star."""

    inner: ModElement

    def wt(self):
        return star_mod(self.inner).wt()

    def eps(self, i):
        return star_mod(self.inner).eps(i)

    def phi(self, i):
        return star_mod(self.inner).phi(i)

    def power(self, i, n):
        c = star_mod(self.inner).power(i, n)
        return None if c is None else Starred(star_mod(c))

    def key(self):
        return ("starred", self.inner.key())


def plain(kind, i):
    return lambda b: None if b is None else (b.e(i) if kind == "e" else b.f(i))


def starred(kind, i):
    return lambda b: None if b is None else (starred_e(b, i) if kind == "e" else starred_f(b, i))


@settings(max_examples=200, deadline=None)
@given(mods)
def test_star_mod_builds_what_the_constructor_builds(e):
    # star_mod builds its result without the constructor's checks; the
    # reference marker is -lam - wt(b1) - wt(b2)
    s = star_mod(e)
    ref = ModElement(left_path(s.b1.entries), -(e.b1.wt() + e.lam + e.b2.wt()),
                     right_path(s.b2.entries))
    assert s == ref and hash(s) == hash(ref) and s.key() == ref.key()
    assert star_mod(s) == e


@settings(max_examples=40, deadline=None)
@given(mods)
def test_axioms_hold_on_mod_element_components(b):
    assert check_axioms(bfs_component(b, 3).nodes.values()) == []


@settings(max_examples=40, deadline=None)
@given(mods)
def test_axioms_hold_under_the_starred_operators(b):
    assert check_axioms(bfs_component(Starred(b), 2).nodes.values()) == []


@settings(max_examples=200, deadline=None)
@given(mods, kinds, colors, kinds, colors)
def test_starred_and_plain_operators_commute_everywhere(b, kind, i, skind, j):
    x, y = plain(kind, i), starred(skind, j)
    xy, yx = x(y(b)), y(x(b))
    assert (None if xy is None else xy.key()) == (None if yx is None else yx.key())
    # each structure's statistics are invariant under the other's operators
    if y(b) is not None:
        assert (y(b).eps(i), y(b).phi(i)) == (b.eps(i), b.phi(i))
    if x(b) is not None:
        xs, bs = star_mod(x(b)), star_mod(b)
        assert (xs.eps(j), xs.phi(j)) == (bs.eps(j), bs.phi(j))


def test_golden_extremal_star_example():
    p = path_from_window(2, 0, -5, [-1, 1, -2, 2, -2, 1, -1, 1, -2, 2])
    out = star_extremal_closed(p)
    expected = path_from_window(4, 4, -5, [-1, 1, -2, 2, -2, 3, -3, 3, -4, 4])
    assert out == expected
    # the algorithmic star through the three-factor form agrees
    alg = lp_join(star_mod(lp_split(p)))
    assert alg == expected


def test_closed_extremal_star_matches_algorithm_on_grounds():
    for m in (1, 2, 3, -1, -2):
        for l in (0, 1, 3):
            from crystalpaths import ground_path
            g = ground_path(m, l)
            assert star_extremal_closed(g) == lp_join(star_mod(lp_split(g)))


def test_star_extremal_closed_rejects_mixed_walls():
    p = path_from_window(0, 0, -2, [1, 1, -1, -1])
    try:
        star_extremal_closed(p)
    except ValueError:
        pass
    else:
        raise AssertionError("mixed wall signs must be rejected")
