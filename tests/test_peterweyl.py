import random

from crystalpaths import (decompose, pw_report, slice_invariant_under_reflection,
                          slices_disjoint, u_lambda, verify_c1, verify_c2,
                          verify_c3)
from crystalpaths.peterweyl import Decomposition
from crystalpaths.star import starred_f
from crystalpaths.weights import classical, orbit_canonical

from conftest import random_walk


def test_decompose_of_generator_is_trivial():
    lam = classical(2, 0)
    d = decompose(u_lambda(lam))
    assert d is not None
    assert d.word == []
    assert d.bmax_factor == u_lambda(lam)
    assert d.lam_canonical == orbit_canonical(lam)[0]


def test_decompose_replays_and_classifies():
    rng = random.Random(3)
    for _ in range(40):
        m, l = rng.choice([(1, 0), (2, 0), (-1, 0), (2, 1)])
        e = random_walk(u_lambda(classical(m, l)), rng.randrange(6), rng)
        d = decompose(e)
        assert d is not None
        assert d.replay() == e
        assert d.lam_canonical == orbit_canonical(classical(m, l))[0]


def test_decompose_separates_starred_moves():
    lam = classical(1, 0)
    e = starred_f(u_lambda(lam), 1)
    assert e is not None
    d = decompose(e)
    assert d is not None
    assert d.replay() == e
    # factorization lands in the same orbit slice and the plain factor is a
    # legitimate B^max member for its own marker weight
    assert d.lam_canonical == orbit_canonical(lam)[0]
    from crystalpaths import bmax_contains
    assert bmax_contains(d.bmax_factor.lam, d.bmax_factor)


def test_component_checks_small_weights():
    for m, l in ((1, 0), (2, 0)):
        lam = classical(m, l)
        assert verify_c1(lam, depth=4, span=2)
        assert verify_c2(lam, depth=4)
        assert verify_c3(lam, depth=4, word_bound=6)


def test_c2_unique_top_weight_vector():
    assert verify_c2(classical(3, 1), depth=4)


def test_pw_report_product_structure():
    rep = pw_report(classical(1, 0), c_bound=1, plain_depth=2, star_depth=2,
                    decompose_cap=25)
    assert rep.ok
    assert rep.pair_count == rep.bmax_size * rep.dual_size
    assert rep.decompose_inconclusive == 0
    assert rep.decompose_mismatched == 0
    assert rep.violations == []


def test_slices_disjoint_across_orbits():
    r1 = pw_report(classical(1, 0), c_bound=1, plain_depth=2, star_depth=2,
                   decompose_cap=0)
    r2 = pw_report(classical(2, 0), c_bound=1, plain_depth=2, star_depth=2,
                   decompose_cap=0)
    assert slices_disjoint(r1, r2)
    assert not slices_disjoint(r1, r1)


def test_slice_invariance_under_reflection():
    assert slice_invariant_under_reflection(classical(1, 0), 1,
                                            depth_small=2, depth_big=4)


def test_pw_report_counts_a_decomposition_that_does_not_replay(monkeypatch):
    monkeypatch.setattr(Decomposition, "replay",
                        lambda self: u_lambda(classical(5, 0)))
    rep = pw_report(classical(1, 0), c_bound=1, plain_depth=1, star_depth=1,
                    decompose_cap=1)
    assert rep.decompose_total == 1
    assert rep.decompose_mismatched == 1
    assert not rep.ok


def test_pw_report_flags_starred_words_that_do_not_follow_u_lambda(monkeypatch):
    # a family holding a dual-family element besides u_lam is not B^max:
    # starred words from it are undefined where they are defined from u_lam
    # and land on elements already paired with u_lam
    lam = classical(-3, 0)
    u = u_lambda(lam)
    foreign = starred_f(u, 0)
    monkeypatch.setattr("crystalpaths.peterweyl.enum_bmax",
                        lambda *args: {e.key(): e for e in (u, foreign)})
    rep = pw_report(lam, c_bound=1, plain_depth=3, star_depth=3, decompose_cap=0)
    assert any("defined-ness differs" in v for v in rep.violations)
    assert "pair map collision" in rep.violations
    assert not rep.product_ok and not rep.ok


def test_shared_verdicts_give_the_fresh_decomposition(monkeypatch):
    # pw_report shares one table of extremality verdicts across its
    # decompose calls; each must return what a call on its own returns
    from crystalpaths import peterweyl
    calls = []
    original = peterweyl.decompose

    def recording(e, *args, **kwargs):
        result = original(e, *args, **kwargs)
        calls.append((e, args, kwargs, result))
        return result

    monkeypatch.setattr(peterweyl, "decompose", recording)
    for m, l in ((1, 0), (2, 0), (3, 0), (4, 0), (-3, 0), (2, 1), (-4, 1)):
        calls.clear()
        rep = pw_report(classical(m, l))
        assert rep.ok and len(calls) == rep.decompose_total == rep.pair_count
        assert all("verdicts" in kwargs for _, _, kwargs, _ in calls)
        for e, args, _, shared in calls:
            fresh = original(e, *args)
            assert fresh is not None and shared is not None
            assert (shared.lam_canonical, shared.bmax_factor.key(), shared.word) == (
                fresh.lam_canonical, fresh.bmax_factor.key(), fresh.word)
