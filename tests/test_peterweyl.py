import random
import sys
from dataclasses import dataclass, fields
from functools import partial

import pytest

from crystalpaths import (decompose, pw_report, pw_verify,
                          slice_invariant_under_reflection, slice_keys,
                          u_lambda, verify_component)
from crystalpaths.core import (COLORS, CrystalElement, bfs_component, check_axioms, explore,
                               graphs_isomorphic, lockstep, plain_moves)
from crystalpaths.extremal import (bminus_star_count, enum_bmax, enum_bminus_star,
                                   extremal_cert, is_extremal, weyl_orbit)
from crystalpaths.halfpath import left_path, right_path
from crystalpaths.levelpath import ModElement, is_extremal_by_walls
from crystalpaths.peterweyl import (DECOMPOSE_DEPTH, EXTREMAL_LEN, Decomposition, SliceReport,
                                    _dual_family_ok, _replay, _star_pairs)
from crystalpaths.star import star_binf, star_mod, starred_e, starred_f
from crystalpaths.weights import Weight, classical, orbit_canonical, simple_root

from conftest import BENCH_LAMBDAS, counted_strings, counted_weyl_ops, random_walk


def test_decompose_of_generator_is_trivial():
    lam = classical(2, 0)
    d = decompose(u_lambda(lam))
    assert d is not None
    assert d.word == []
    assert d.bmax_factor == u_lambda(lam)
    assert d.lam_canonical == orbit_canonical(lam)


def test_decompose_replays_and_classifies():
    rng = random.Random(3)
    for _ in range(40):
        m, l = rng.choice([(1, 0), (2, 0), (-1, 0), (2, 1)])
        e = random_walk(u_lambda(classical(m, l)), rng.randrange(6), rng)
        d = decompose(e)
        assert d is not None
        assert d.replay() == e
        assert d.lam_canonical == orbit_canonical(classical(m, l))
        # the word as literal starred operators, and the caller's star image
        assert d.extremal == star_mod(d.bmax_factor) and _reference_replay(d) == e
        assert decompose(e, e_star=star_mod(e)) == d


def test_decompose_separates_starred_moves():
    lam = classical(1, 0)
    e = starred_f(u_lambda(lam), 1)
    assert e is not None
    d = decompose(e)
    assert d is not None
    assert d.replay() == e
    # factorization lands in the same orbit slice and the plain factor is a
    # legitimate B^max member for its own marker weight
    assert d.lam_canonical == orbit_canonical(lam)
    from crystalpaths import bmax_contains
    assert bmax_contains(d.bmax_factor.lam, d.bmax_factor)


def test_component_checks_small_weights():
    for m, l in ((1, 0), (2, 0)):
        assert verify_component(classical(m, l), depth=4, word_bound=6) == (True, True, True)


def test_c2_unique_top_weight_vector():
    assert verify_component(classical(3, 1), depth=4)[1]


# -- C1, C2 and C3 as three walks: the reference for verify_component -----------


def _verify_c1(lam, depth=5, span=2):
    """Components of extremal weight-lam vectors all match the component of
    u_lam: as many of the wall characterization's elements as it predicts
    (bminus_star_count) are extremal by the bounded walk at 12 letters, and
    each has weight lam and follows u_lam's words move for move."""
    starts = [e for e in enum_bminus_star(lam, span=span) if extremal_cert(e, 12).extremal]
    if len(starts) != bminus_star_count(lam, span):
        return False
    _, walks = lockstep(u_lambda(lam), plain_moves, depth, starts)
    return all(b.wt() == lam and not problems for b, (_, _, problems) in zip(starts, walks))


def _verify_c2(lam, depth=5):
    """The component of u_lam holds exactly one vector of weight lam."""
    root = u_lambda(lam)
    nodes = explore([root], plain_moves, depth)
    return [b for _, _, b, _, new in nodes if new and b.wt() == lam] == [root]


def _verify_c3(lam, depth=5, word_bound=8):
    """Extremal vectors in the component of u_lam are exactly the images of
    u_lam under alternating Weyl-operator words."""
    orbit = weyl_orbit(u_lambda(lam), word_bound, EXTREMAL_LEN)
    if orbit is None:
        return False
    nodes = explore([u_lambda(lam)], plain_moves, depth)
    return not any(new and is_extremal(b, EXTREMAL_LEN) and k not in orbit
                   for _, _, b, k, new in nodes)


def _reference_component_checks(lam, depth=5, word_bound=8):
    """C1, C2 and C3 by three walks of u_lam's component, with the bounds
    pw-verify gave them: span 2 for C1, and word_bound for C3's orbit."""
    return (_verify_c1(lam, depth, span=2),
            _verify_c2(lam, depth),
            _verify_c3(lam, depth, word_bound=word_bound))


def test_component_checks_match_the_three_walks():
    for m, l in BENCH_LAMBDAS + ((5, 0),):
        lam = classical(m, l)
        assert verify_component(lam) == _reference_component_checks(lam) == (True, True, True)
    # bounds at which C3 fails, so that a failing verdict is compared too
    for (m, l), depth, word_bound in (((2, 0), 6, 2), ((3, 0), 5, 0), ((1, 0), 7, 1)):
        lam = classical(m, l)
        got = verify_component(lam, depth, word_bound)
        assert got == _reference_component_checks(lam, depth, word_bound)
        assert not got[2]


def test_pw_verify_walks_u_lambda_once(monkeypatch, capsys):
    # C1, C2 and C3 read one plain walk of u_lam's component
    from crystalpaths import cli, core, peterweyl
    roots = []

    def wrap(original):
        def recording(starts, moves, depth):
            starts = list(starts)
            if moves is plain_moves:
                roots.append([b.key() for b in starts])
            return original(starts, moves, depth)
        return recording

    monkeypatch.setattr(core, "explore", wrap(core.explore))
    monkeypatch.setattr(peterweyl, "explore", wrap(peterweyl.explore))
    assert cli.main(["pw-verify", "--lambda=3,0"]) == 0
    capsys.readouterr()
    assert roots.count([u_lambda(classical(3, 0)).key()]) == 1


@pytest.mark.parametrize("values, failed, ok", [
    ({}, False, True),  # C1-C3 unchecked
    ({"c1": True, "c2": True, "c3": True}, False, True),
    ({"c1": True, "c3": None}, False, True),
    ({"c1": False}, True, False),
    ({"c2": False}, True, False),
    ({"c3": False, "c1": True}, True, False),
    ({"decompose_inconclusive": 1}, False, False),
    ({"c2": False, "decompose_inconclusive": 1}, True, False),
    ({"violations": ["pair map collision"], "decompose_inconclusive": 1}, True, False),
])
def test_slice_report_verdict_counts_c1_to_c3(values, failed, ok):
    # a False among C1-C3 fails the report, None is unchecked, and a
    # definite failure beats an inconclusive decompose()
    rep = SliceReport(lam=classical(1, 0), product_ok=True,
                      dual_characterization_ok=True, **values)
    assert (rep.failed, rep.ok) == (failed, ok)


def test_pw_report_product_structure():
    rep = pw_report(classical(1, 0), c_bound=1, depth=2)
    assert rep.ok
    assert rep.pair_count == rep.bmax_size * rep.dual_size
    assert rep.decompose_inconclusive == 0
    assert rep.decompose_mismatched == 0
    assert rep.violations == []


def test_slices_disjoint_across_orbits():
    # (1, 0) and (2, 0) lie in different Weyl orbits: their slices share no
    # element, and a small slice of one is not inside a deeper one of the
    # other
    k1 = slice_keys(classical(1, 0), 1, 2)
    k2 = slice_keys(classical(2, 0), 1, 2)
    assert k1 and k2 and k1.isdisjoint(k2)
    assert not k1 <= slice_keys(classical(2, 0), 2, 4)
    assert len(k1) == pw_report(classical(1, 0), 1, 2).pair_count


def test_slice_invariance_under_reflection():
    lam = classical(1, 0)
    assert slice_invariant_under_reflection(lam, 1, depth_small=2, depth_big=4)
    # none of the four key sets it compares is empty
    for w in (lam, lam.reflect(1)):
        assert slice_keys(w, 1, 2) and slice_keys(w, 2, 4)


# -- where the S-walks run -------------------------------------------------------


def test_slice_invariance_builds_no_table(monkeypatch):
    # the slice keys come from lockstep walks alone, so none of the four
    # takes an S_i step
    calls = counted_weyl_ops(monkeypatch)
    assert slice_invariant_under_reflection(classical(1, 0), 1,
                                            depth_small=2, depth_big=4)
    assert calls == []


class ReplayFailed(Exception):
    pass


def test_no_table_is_current_after_a_call_returns_or_raises(monkeypatch):
    # no S-step table is kept in scope, so each function that replays a
    # decomposition runs on its own; an error other than RuntimeError in
    # the replay raises out of each of them
    lam = classical(1, 0)
    replaying = [partial(pw_verify, lam, 3, 4), partial(pw_report, lam, 1, 2),
                 partial(decompose, starred_f(u_lambda(lam), 1))]
    for call in replaying:
        call()

    def failing(self):
        raise ReplayFailed

    monkeypatch.setattr(Decomposition, "star_image", failing)
    for call in replaying:
        with pytest.raises(ReplayFailed):
            call()


def test_pw_report_counts_a_decomposition_that_does_not_replay(monkeypatch):
    monkeypatch.setattr(Decomposition, "star_image",
                        lambda self: u_lambda(classical(5, 0)))
    rep = pw_report(classical(1, 0), c_bound=1, depth=1)
    assert rep.decompose_mismatched == rep.pair_count > 0
    assert rep.failed and not rep.ok


def test_pw_report_flags_starred_words_that_do_not_follow_u_lambda(monkeypatch):
    # a family holding a dual-family element besides u_lam is not B^max:
    # starred words from it are undefined where they are defined from u_lam
    # and land on elements already paired with u_lam
    lam = classical(-3, 0)
    u = u_lambda(lam)
    foreign = starred_f(u, 0)
    monkeypatch.setattr("crystalpaths.peterweyl.enum_bmax",
                        lambda *args: {e.key(): e for e in (u, foreign)})
    rep = pw_report(lam, c_bound=1, depth=3)
    assert any("defined-ness differs" in v for v in rep.violations)
    assert "pair map collision" in rep.violations
    assert not rep.product_ok and not rep.ok


# -- the starred side run literally: the reference for the star-space route --


def _starred_moves(e):
    for i in COLORS:
        yield ("e", i), starred_e(e, i)
        yield ("f", i), starred_f(e, i)


def _reference_replay(d):
    """The word as starred operators on bmax_factor: each string (kind, i, n)
    as n literal steps, X*(y) = (X(y*))* per step."""
    cur = d.bmax_factor
    for kind, i, n in d.word:
        for _ in range(n):
            cur = starred_e(cur, i) if kind == "e" else starred_f(cur, i)
            if cur is None:
                raise RuntimeError("decomposition word failed to replay")
    return cur


def _reference_report(lam, decompose_call):
    """pw_report with the starred BFS from u_lam and the starred replay on
    each b; returns the report and its pair map (element key -> (b key,
    dual key)).  Like pw_report, it decomposes the elements in the order of
    its pair map: b in key order, and each b's elements in the order the
    starred BFS from u_lam first reaches their partners."""
    rep = SliceReport(lam=lam)
    canon = orbit_canonical(lam)
    bmax = enum_bmax(lam, 1, 3)
    rep.bmax_size = len(bmax)
    root = u_lambda(lam)
    dual = {}
    trace = []
    for rkey, move, c, ckey, new in explore([root], _starred_moves, 3):
        if new:
            dual[ckey] = c
        if rkey is not None:
            trace.append((rkey, move, ckey))
    rep.dual_size = len(dual)
    rep.dual_characterization_ok = all(_dual_family_ok(r, lam) for r in dual.values())
    pair_of = {}
    elements = {}
    for bkey, b in sorted(bmax.items()):
        if bkey in pair_of:
            rep.violations.append("pair map collision")
        image = {root.key(): b}
        pair_of[bkey] = (bkey, root.key())
        elements[bkey] = b
        for rkey, (kind, i), ckey in trace:
            if rkey not in image:
                continue
            enew = starred_e(image[rkey], i) if kind == "e" else starred_f(image[rkey], i)
            if (enew is None) != (ckey is None):
                rep.violations.append(
                    f"starred {kind}{i} defined-ness differs at b={bkey[:2]}")
                continue
            if enew is None:
                continue
            if ckey in image:
                # the same dual element must give the same element
                if image[ckey].key() != enew.key():
                    rep.violations.append("pair map not well defined")
                continue
            if enew.key() in pair_of:
                rep.violations.append("pair map collision")
            image[ckey] = enew
            pair_of[enew.key()] = (bkey, ckey)
            elements[enew.key()] = enew
    rep.pair_count = len(pair_of)
    rep.product_ok = not rep.violations and rep.pair_count == rep.bmax_size * rep.dual_size
    for e in elements.values():
        try:
            result = decompose_call(e, 10)
        except RuntimeError:
            rep.decompose_mismatched += 1
            continue
        if result is None:
            rep.decompose_inconclusive += 1
        elif result.lam_canonical != canon:
            rep.decompose_mismatched += 1
    return rep, pair_of


def _searched(lam):
    """(dual key, y, decompose() of y*) for every element of pw_report's
    slice, in its pair-map order: a search on each element, where
    pw_report searches once per dual element and replays the word on the
    others."""
    _, pairs, _ = _star_pairs(lam, enum_bmax(lam, 1, 3), 3)
    return [(rkey, y, decompose(None, DECOMPOSE_DEPTH, e_star=y))
            for _, (_, rkey, y) in pairs]


def _found(e, result):
    return e.key(), None if result is None else (
        result.lam_canonical, result.bmax_factor.key(), result.word)


def test_star_space_report_matches_the_starred_reference(monkeypatch):
    # the report against the literal starred route, and decompose() on
    # every element of the star-space pair map against decompose() with
    # its replay check on the literal starred word
    found = []

    def recording(e, max_depth):
        result = decompose(e, max_depth)
        found.append(_found(e, result))
        return result

    for m, l in BENCH_LAMBDAS + ((5, 0),):
        lam = classical(m, l)
        rep = pw_report(lam)
        dual, pairs, violations = _star_pairs(lam, enum_bmax(lam, 1, 3), 3)
        back = {k: star_mod(r).key() for k, r in dual.items()}
        fast_pairs = {star_mod(y).key(): (bkey, back[rkey])
                      for _, (bkey, rkey, y) in pairs}
        fast = [_found(star_mod(y), d) for _, y, d in _searched(lam)]

        found.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Decomposition, "star_image",
                          lambda d: star_mod(_reference_replay(d)))
            ref, ref_pairs = _reference_report(lam, recording)
        assert rep == ref
        assert violations == ref.violations and star_mod(u_lambda(lam)).key() in dual
        assert fast_pairs == ref_pairs
        assert fast == found and len(fast) == rep.pair_count


def test_pw_report_does_not_grow_with_the_delta_label(monkeypatch):
    # lam's orbit representative is read off in closed form, so the report
    # at a large delta label needs no reflection and matches the one at the
    # representative's label on every count
    def no_reflect(self, i):
        raise AssertionError("pw_report reflected a weight")

    monkeypatch.setattr(Weight, "reflect", no_reflect)
    far, near = pw_report(classical(3, 20000)), pw_report(classical(3, 2))
    assert far.ok and near.ok
    for f in fields(far):
        if f.name != "lam":
            assert getattr(far, f.name) == getattr(near, f.name), f.name


def test_pw_report_stars_only_the_factors(monkeypatch):
    # one report stars each B^max element and each dual element once, and
    # u_lam once, and no element of the slice: star_mod calls counted under
    # every name that binds it in the library
    from crystalpaths import star
    original = star.star_mod
    calls = [0]

    def counting(e):
        calls[0] += 1
        return original(e)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "crystalpaths" and getattr(module, "star_mod", None) is original:
            monkeypatch.setattr(module, "star_mod", counting)
    rep = pw_report(classical(4, 0))
    assert rep.ok
    assert calls[0] == rep.bmax_size + rep.dual_size + 1


def test_pw_report_reads_the_statistics_about_twice_per_string(monkeypatch):
    # each ModElement string (one tensor-rule split in levelpath) reads the
    # statistics of its two factors once, shared with its color's other
    # string, exponents and checks where the call site holds them: at most
    # 2.5 halfpath._statistics scans per string, counted under every name
    # that binds them in the library, with a cold star cache
    from crystalpaths import halfpath, levelpath
    calls = {"scans": 0, "strings": 0}

    def counted(name, original):
        def count(*args):
            calls[name] += 1
            return original(*args)
        return count

    scan = halfpath._statistics
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "crystalpaths" and getattr(module, "_statistics", None) is scan:
            monkeypatch.setattr(module, "_statistics", counted("scans", scan))
    monkeypatch.setattr(levelpath, "_string_split", counted("strings", levelpath._string_split))
    assert pw_report(classical(3, 0)).ok
    assert calls["strings"] > 1000
    assert calls["scans"] <= 2.5 * calls["strings"]


# -- a word that reaches a dual node at a second element -----------------------


def _lowered(colors) -> Weight:
    w = Weight(0, 0, 0)
    for i in colors:
        w = w - simple_root(i)
    return w


@dataclass(frozen=True)
class Counts(CrystalElement):
    """f_i adds one to the count of color i and e_i takes one off: f_0 f_1
    and f_1 f_0 meet."""

    n: tuple = (0, 0)

    def wt(self):
        return _lowered([0] * self.n[0] + [1] * self.n[1])

    def power(self, i, n):
        counts = list(self.n)
        counts[i] += n
        return Counts(tuple(counts)) if counts[i] >= 0 else None

    def key(self):
        return ("counts", self.n)


@dataclass(frozen=True)
class Word(CrystalElement):
    """f_i appends the letter i and e_i takes a last letter i off: f_0 f_1
    and f_1 f_0 stay apart."""

    letters: tuple = ()

    def wt(self):
        return _lowered(self.letters)

    def power(self, i, n):
        if n >= 0:
            return Word(self.letters + (i,) * n)
        if self.letters[len(self.letters) + n:] != (i,) * -n:
            return None
        return Word(self.letters[:n])

    def key(self):
        return ("word", self.letters)


def test_pair_map_flags_a_dual_node_reached_at_a_second_element(monkeypatch):
    # with Counts as u_lam* and Word as the only b*, every word is defined
    # on both sides and no element is reached twice, so the pair count is
    # the product; but f_1 f_0 reaches the node (1, 1), already paired with
    # the word (0, 1), at the word (1, 0)
    from crystalpaths import peterweyl
    monkeypatch.setattr(peterweyl, "u_lambda", lambda lam: Counts())
    monkeypatch.setattr(peterweyl, "star_mod", lambda e: e)
    b = Word()
    dual, pairs, violations = _star_pairs(classical(1, 0), {b.key(): b}, 2)
    assert Counts().key() in dual and len(dual) == len(dict(pairs)) == 6
    assert violations == ["pair map not well defined"]
    assert not graphs_isomorphic(bfs_component(Counts(), 2), bfs_component(b, 2))


def test_lockstep_reports_each_kind_of_problem():
    started = []

    def starts():
        for start in (Word(), Counts(), Counts((0, 1))):
            started.append(start)
            yield start

    nodes, walks = lockstep(Counts(), plain_moves, 2, starts())
    assert len(nodes) == 6 and started == []  # starts are walked when asked
    keys, elements, problems = next(walks)
    assert started == [Word()] and problems == [(("f", 0), "not well defined")]
    assert elements[keys[("counts", (1, 1))]] == Word((0, 1)) and len(elements) == 6
    keys, elements, problems = next(walks)
    assert problems == [] and keys == {k: k for k in nodes} and elements == nodes
    # e_1 is defined at (0, 1) and (1, 1), not at (0, 0) and (1, 0)
    assert next(walks)[2] == [(("e", 1), "defined")] * 2
    assert next(walks, None) is None
    # the other way round, the words f_0 f_1 and f_1 f_0 meet
    nodes, walks = lockstep(Word(), plain_moves, 2, [Counts()])
    keys, elements, problems = next(walks)
    assert len(nodes) == len(keys) == 7 and len(elements) == 6
    assert keys[("word", (0, 1))] == keys[("word", (1, 0))] == ("counts", (1, 1))
    assert problems == [(("f", 0), "collision")]


# -- C1 by whole component graphs: the reference for lockstep ------------------


def _graph_c1(lam, depth=5, span=2):
    """C1 as it was first written: each start is an extremal vector, by the
    bounded walk at 12 letters, and its component graph matches u_lam's, by
    graphs_isomorphic."""
    from crystalpaths import peterweyl
    reference = bfs_component(u_lambda(lam), depth)
    return all(extremal_cert(b, 12).extremal
               and graphs_isomorphic(bfs_component(b, depth), reference)
               for b in peterweyl.enum_bminus_star(lam, span=span))


def test_lockstep_c1_matches_the_graph_route(monkeypatch):
    for m, l in BENCH_LAMBDAS + ((5, 0),):
        lam = classical(m, l)
        assert verify_component(lam)[0] == _graph_c1(lam)
        assert verify_component(lam, depth=3)[0] == _graph_c1(lam, depth=3)
    # an element of weight lam off B(-lam)*, whose component is not u_lam's,
    # in place of one start, so that the start count still holds; it is
    # not extremal either, which the graph route checks first
    from crystalpaths import peterweyl
    lam = classical(1, 0)
    foreign = ModElement(left_path({-2: 1}), classical(-1, 1), right_path({}))
    assert foreign.wt() == lam and not extremal_cert(foreign, 12).extremal
    assert not graphs_isomorphic(bfs_component(foreign, 5), bfs_component(u_lambda(lam), 5))
    enum = peterweyl.enum_bminus_star
    monkeypatch.setattr("crystalpaths.peterweyl.enum_bminus_star",
                        lambda *args, **kwargs: enum(*args, **kwargs)[:-1] + [foreign])
    assert not verify_component(lam)[0] and not _graph_c1(lam)


def test_c1_fails_on_a_missing_start(monkeypatch):
    # every start left follows u_lam's words, so only the count sees the
    # one that is gone
    from crystalpaths import peterweyl
    enum = peterweyl.enum_bminus_star
    monkeypatch.setattr("crystalpaths.peterweyl.enum_bminus_star",
                        lambda *args, **kwargs: enum(*args, **kwargs)[:-1])
    for m, l in BENCH_LAMBDAS:
        lam = classical(m, l)
        assert _graph_c1(lam)
        assert not verify_component(lam)[0]


def _starred_walk(start, steps, rng):
    """A random walk of plain and starred steps, which leaves the plain
    component of start."""
    cur = start
    for _ in range(steps):
        i = rng.randrange(2)
        step = rng.choice((lambda b: b.f(i), lambda b: b.e(i),
                           lambda b: starred_f(b, i), lambda b: starred_e(b, i)))
        cur = step(cur) or cur
    return cur


def test_lockstep_agrees_with_graph_isomorphism():
    rng = random.Random(14)
    by_weight = {}
    for _ in range(600):
        lam = classical(rng.choice((1, 2, 3, -2, -3)), rng.choice((0, 1)))
        e = _starred_walk(u_lambda(lam), rng.randrange(6), rng)
        by_weight.setdefault(e.wt(), {})[e.key()] = e
    buckets = [list(v.values()) for v in by_weight.values() if len(v) > 1]
    verdicts = []
    for _ in range(300):
        a, b = rng.sample(rng.choice(buckets), 2)
        depth = rng.randint(1, 4)
        _, walks = lockstep(a, plain_moves, depth, [b])
        _, _, problems = next(walks)
        verdicts.append(not problems)
        assert verdicts[-1] == graphs_isomorphic(bfs_component(a, depth),
                                                 bfs_component(b, depth))
    assert 30 < sum(verdicts) < 270


# -- the string search against the single-step search ------------------------


def _step_decompose(e, max_depth=10, extremal_len=4, verdicts=None):
    """The single-step search: breadth-first over plain e_i/f_i from e* to
    the first extremal vector, its word as strings of one step each."""
    verdicts = {} if verdicts is None else verdicts
    links = {}
    for pkey, move, x, k, new in explore([star_mod(e)], plain_moves, max_depth):
        if not new:
            continue
        if pkey is not None:
            links[k] = (pkey, move)
        extremal = verdicts.get(k)
        if extremal is None:
            extremal = verdicts[k] = is_extremal(x, extremal_len)
        if not extremal:
            continue
        inverse = []
        while k in links:
            k, (kind, i) = links[k]
            inverse.append(("f" if kind == "e" else "e", i, 1))
        return Decomposition(inverse, x)
    return None


def test_string_search_matches_the_step_search():
    # every element pw_report decomposes: both searches find a factor, in
    # the same slice, with B^max markers in one Weyl orbit, replaying to it
    longest = {}
    for m, l in BENCH_LAMBDAS + ((5, 0),):
        assert pw_report(classical(m, l)).ok
        verdicts = {}
        for _, y, strings in _searched(classical(m, l)):
            e = star_mod(y)
            steps = _step_decompose(e, verdicts=verdicts)
            assert strings is not None and steps is not None
            assert strings.lam_canonical == steps.lam_canonical
            assert (orbit_canonical(strings.bmax_factor.lam)
                    == orbit_canonical(steps.bmax_factor.lam))
            assert strings.replay() == e == steps.replay()
            assert _reference_replay(strings) == e
            size = len(strings.word)
            longest[size] = longest.get(size, 0) + 1
    assert max(longest) == 2 and sum(longest.values()) > 4000


def test_replay_is_the_starred_star_image():
    # for every star image y in pw_report's slice, the searched word's
    # plain strings on the extremal vector give y, and replay(), the
    # plain-space check, gives the element y*; the word searched for the
    # first element of y's dual partner, replayed on y (_replay), gives y
    # from a factor in the same orbit
    words = 0
    for m, l in BENCH_LAMBDAS:
        first = {}
        rep = pw_report(classical(m, l))
        found = _searched(classical(m, l))
        assert len(found) == rep.pair_count
        for rkey, y, d in found:
            assert y is not None and d is not None
            assert d.star_image() == y
            assert d.replay() == star_mod(y)
            words += bool(d.word)
            reused = _replay(first.setdefault(rkey, d.word), y)
            assert reused is not None and reused.star_image() == y
            assert reused.lam_canonical == d.lam_canonical
    assert words > 1000


def test_max_depth_counts_strings():
    # E0* E0* E1* from u_lam comes back along two strings, one of them two
    # steps long
    u = u_lambda(classical(3, 0))
    e = starred_e(starred_e(starred_e(u, 0), 0), 1)
    d = decompose(e, max_depth=2)
    assert d is not None and d.replay() == e
    assert len(d.word) == 2 and sum(n for _, _, n in d.word) == 3
    assert decompose(e, max_depth=1) is None


def _searched_report(lam, depth=3):
    """pw_report with a decompose() search on every element: the reference
    for its word reuse."""
    rep = SliceReport(lam=lam)
    canon = orbit_canonical(lam)
    bmax = enum_bmax(lam, 1, depth)
    rep.bmax_size = len(bmax)
    dual, pairs, rep.violations = _star_pairs(lam, bmax, depth)
    rep.dual_size = len(dual)
    rep.dual_characterization_ok = all(_dual_family_ok(star_mod(r), lam)
                                       for r in dual.values())
    for _, (_, _, y) in pairs:
        rep.pair_count += 1
        try:
            result = decompose(None, DECOMPOSE_DEPTH, e_star=y)
        except RuntimeError:
            rep.decompose_mismatched += 1
            continue
        if result is None:
            rep.decompose_inconclusive += 1
        elif result.lam_canonical != canon:
            rep.decompose_mismatched += 1
    rep.product_ok = not rep.violations and rep.pair_count == rep.bmax_size * rep.dual_size
    return rep


def _counted_searches(monkeypatch, corrupt=None) -> list:
    """The decompose() calls pw_report makes from then on; corrupt, when
    given, rewrites the word of the first search that finds a nonempty
    one, which pw_report then keeps for that dual element."""
    from crystalpaths import peterweyl
    original = peterweyl.decompose
    calls, corrupted = [], []

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        if corrupt is not None and not corrupted and result is not None and result.word:
            corrupted.append(result)
            result = Decomposition(corrupt(result.word), result.extremal)
        return result

    monkeypatch.setattr(peterweyl, "decompose", counting)
    return calls


@pytest.mark.parametrize("m, l", [(4, 0), (-4, 1), (2, 1), (0, 1)])
def test_pw_verify_in_its_memo_scope_gives_the_report_of_its_checks(m, l):
    # pw_verify, which searches once per dual element and replays that
    # word on the partner's other elements, gives the report of its checks
    # with a decompose() search on every element, field by field
    lam = classical(m, l)
    searched = _searched_report(lam)
    searched.c1, searched.c2, searched.c3 = verify_component(lam, 5, 8)
    star_binf.cache_clear()
    reused = pw_verify(lam)
    assert searched.pair_count > 0
    for f in fields(SliceReport):
        assert getattr(reused, f.name) == getattr(searched, f.name), f.name


def test_a_corrupted_word_falls_back_to_the_search(monkeypatch):
    # a word whose last string runs out on every element: the partner's
    # next element is searched, the search's word replaces it, and the
    # report does not change
    lam = classical(4, 0)
    clean = pw_report(lam)
    star_binf.cache_clear()
    calls = _counted_searches(monkeypatch, lambda word: word + [("f", 0, 10**6)])
    rep = pw_report(lam)
    assert rep == clean and rep.ok
    assert len(calls) == rep.dual_size + 1


def test_a_replay_certifies_an_extremal_end_that_gives_the_element_back(monkeypatch):
    # the word of an element with a nonempty word: on the element itself it
    # gives back the search's decomposition; with no strings the replay ends
    # at y, which is not extremal (the search would have stopped there), and
    # a string that runs out ends it; a word that does not come back to y
    # certifies nothing
    y, d = next((y, d) for _, y, d in _searched(classical(4, 0)) if d.word)
    assert _replay(d.word, y) == d
    assert not is_extremal_by_walls(y) and _replay([], y) is None
    assert _replay(d.word + [("f", 0, 10**6)], y) is None
    monkeypatch.setattr(Decomposition, "star_image", lambda self: u_lambda(classical(4, 0)))
    assert _replay(d.word, y) is None


def test_the_slice_and_its_replay_ends_satisfy_the_crystal_axioms():
    # _replay's star_image() == y check holds wherever the axiom
    # e_i b = b' iff f_i b' = b does: check_axioms finds no violation on
    # the slice elements, read as pw_report reads them, or on the ends
    # their replays (or, once per dual element, their searches) reach
    lam = classical(4, 0)
    _, pairs, _ = _star_pairs(lam, enum_bmax(lam, 1, 3), 3)
    words, elements, ends = {}, [], []
    for _, (_, rkey, y) in pairs:
        d = _replay(words[rkey], y) if rkey in words else None
        if d is None:
            d = decompose(None, DECOMPOSE_DEPTH, e_star=y)
            words[rkey] = d.word
        elements.append(y)
        ends.append(d.extremal)
    assert len(elements) == 800 and len(words) == 10
    assert check_axioms(elements) == []
    assert check_axioms(ends) == []


def test_a_factor_outside_the_orbit_is_searched_on_every_element(monkeypatch):
    # every factor reads another orbit's representative: each replay fails
    # the orbit check, so every element is searched and mismatched
    calls = _counted_searches(monkeypatch)
    monkeypatch.setattr(Decomposition, "lam_canonical", property(lambda d: classical(5, 0)))
    rep = pw_report(classical(2, 0))
    assert rep.decompose_mismatched == rep.pair_count == len(calls) > rep.dual_size
    assert rep.failed


def test_pw_verify_string_count_is_pinned(monkeypatch, capsys):
    # pw_verify computes every string it asks for: 1,757 in
    # verify_component (none for C1's starts, which are read off their
    # walls and walk no S-word) and the rest in the slice report, which
    # searches once per dual element and replays that word on the other
    # 790 elements; the count drifts when either check calls power on
    # other factors, and nothing outlives the call, so the same command
    # does the same work again
    from crystalpaths.cli import main
    lam = classical(4, 0)
    held = counted_strings(monkeypatch)
    verify_component(lam, 5, 8)
    assert len(held) == 1757
    held.clear()
    star_binf.cache_clear()
    searches = _counted_searches(monkeypatch)
    assert pw_verify(lam).ok
    assert len(held) == 5602 and len(searches) == 10
    held.clear()
    searches.clear()
    star_binf.cache_clear()
    assert main(["pw-verify", "--lambda=4,0"]) == 0
    assert len(held) == 5602 and len(searches) == 10
    capsys.readouterr()
