import random
from functools import cache
from itertools import accumulate, product

from hypothesis import given, settings, strategies as st

from crystalpaths import (bmax_contains, bmax_seed, decompose, enum_bmax,
                          enum_bminus_star, extremal_cert, ground_path,
                          is_extremal, lp_join, lp_split,
                          path_from_window, star_mod, u_lambda, weyl_op)
from crystalpaths.core import COLORS, explore, plain_moves
from crystalpaths.extremal import (_locally_extremal, bminus_star_count, uniform_wall_path,
                                   weyl_orbit)
from crystalpaths.halfpath import from_word, right_path
from crystalpaths.levelpath import ModElement, is_extremal_by_walls
from crystalpaths.peterweyl import verify_component
from crystalpaths.weights import classical

from conftest import (BENCH_LAMBDAS, counted_weyl_ops, same_entries, single_step,
                      single_steps)
from crystals import TElement, TensorElement


def test_weyl_op_on_ground_paths():
    # S_i on an extremal element stays in the Weyl orbit of its weight
    u = lp_split(ground_path(1, 0))
    # <h_1, wt> = -1, so S_1 = e_1 here
    s1 = weyl_op(u, 1)
    assert s1.wt() == u.wt().reflect(1)
    back = weyl_op(s1, 1)
    assert back == u
    # explicit image: the wall moves one slot right
    assert lp_join(s1).entry(0) == 0 and lp_join(s1).entry(1) == -1


def test_weyl_op_identity_at_zero_pairing():
    u = u_lambda(classical(0, 0))
    assert weyl_op(u, 0) == u and weyl_op(u, 1) == u


def test_ground_paths_are_extremal():
    for m in (-3, -1, 0, 1, 2, 3):
        for l in (0, 2):
            assert is_extremal(lp_split(ground_path(m, l)))


def test_lowering_off_extremal_position_is_not_extremal():
    u = lp_split(ground_path(2, 0))
    # a single f_0 step leaves the Weyl orbit: the result sits at weight
    # zero but still has both color-0 operators defined
    moved = u.f(0)
    assert moved is not None
    assert not is_extremal(moved)
    cert = extremal_cert(moved)
    assert cert.witness is not None


def test_extremal_cert_witness_replays():
    u = lp_split(ground_path(2, 0))
    moved = u.f(0)
    cert = extremal_cert(moved)
    assert not cert.extremal
    cur = moved
    ok = True
    for i in cert.witness:
        cur = weyl_op(cur, i)
    # the endpoint (or the element itself) fails local extremality
    n0, n1 = cur.wt().pairing(0), cur.wt().pairing(1)
    fails = ((n0 >= 0 and cur.e(0) is not None) or (n0 <= 0 and cur.f(0) is not None)
             or (n1 >= 0 and cur.e(1) is not None) or (n1 <= 0 and cur.f(1) is not None))
    assert fails or cert.witness == []


def test_mixed_walls_rule_extremality_out():
    # the converse of is_extremal_by_walls where it is read: the bounded
    # check rejects every mixed-wall element at every word bound up to 8,
    # here those of the benchmark weights' components (depth 5) and the
    # star images of their slices (B^max's included), where decompose
    # starts its searches
    from crystalpaths.peterweyl import _star_pairs
    p = path_from_window(0, 0, -2, [1, 1, -1, -1])
    assert p.wall_sign() is None and not is_extremal(lp_split(p))
    mixed = 0
    for m, l in BENCH_LAMBDAS:
        lam = classical(m, l)
        component = [c for _, _, c, _, new in explore([u_lambda(lam)], plain_moves, 5) if new]
        _, pairs, _ = _star_pairs(lam, enum_bmax(lam, 1, 3), 3)
        for e in component + [y for _, (_, _, y) in pairs]:
            if e.wall_sign() is None:
                mixed += 1
                assert not any(is_extremal(e, n) for n in range(1, 9))
    assert mixed > 2000


def test_starred_weyl_op_preserves_weight():
    u = u_lambda(classical(2, 0))
    s = star_mod(weyl_op(star_mod(u), 1))
    assert s.wt() == u.wt()
    assert star_mod(s).wt() == star_mod(u).wt().reflect(1)


def test_uniform_wall_path_reproduces_grounds():
    # m stacked walls at 0 give the ground path of P_{m,l}
    for m in (1, 2, 3):
        for l in (0, 2):
            p = uniform_wall_path([0] * m, 1, l)
            assert p == ground_path(m, l)
            q = uniform_wall_path([0] * m, -1, l)
            assert q == ground_path(-m, l)


def test_uniform_wall_path_properties():
    # fixed cases, then seeded random wall sets with stacked walls and walls
    # on both sides of 0; the letters are checked against the recurrence
    # i_k = sign * mult(k) - i_{k-1} position by position
    rng = random.Random(29)
    cases = [[0, 0], [0, 1], [-2, -2], [-1, 1], [0, 1, 1]]
    cases += [[rng.randrange(-5, 6) for _ in range(rng.randrange(1, 7))] for _ in range(300)]
    stacked = straddling = 0
    for walls in cases:
        stacked += len(set(walls)) < len(walls)
        straddling += min(walls) < 0 < max(walls)
        for sign in (1, -1):
            delta = rng.randrange(-3, 4)
            p = uniform_wall_path(walls, sign, delta)
            assert p.wall_positions() == sorted(walls)
            assert p.wall_sign() == sign
            assert p.wt().d == delta
            lo, hi = p.window()
            prev = 0
            for k in range(min(lo, min(walls)) - 2, max(hi, max(walls)) + 3):
                assert p.entry(k) == sign * walls.count(k) - prev
                prev = p.entry(k)
            assert p.m == sign * sum((-1) ** (w % 2) for w in walls)
    assert stacked > 100 and straddling > 100


def test_seed_entries_star_fixed():
    # every seed with |m| = 1..5, both signs, l in {0, 2} and block sizes
    # up to 2 (up to 3 for |m| = 2) is star-fixed and lies in B^max
    count = 0
    for n in range(1, 6):
        for m in (n, -n):
            for l in (0, 2):
                lam = classical(m, l)
                for cvec in product(range(4 if n == 2 else 3), repeat=n - 1):
                    seed = bmax_seed(lam, cvec)
                    e = lp_split(seed)
                    assert same_entries(seed, lp_join(star_mod(e)))
                    assert bmax_contains(lam, e)
                    count += 1
    assert count == 4 * (1 + 4 + 9 + 27 + 81)


def test_seed_rejects_bad_shapes():
    for bad in ((-1,), (0, 0)):
        try:
            bmax_seed(classical(2, 0), bad)
        except ValueError:
            continue
        raise AssertionError(f"shape {bad} must be rejected")


def test_bmax_membership_boundary():
    lam = classical(1, 0)
    u = u_lambda(lam)
    assert bmax_contains(lam, u)
    # wrong marker weight: not in this B^max
    assert not bmax_contains(classical(2, 0), u)
    # plain moves stay inside
    e = u.f(0)
    assert e is not None and bmax_contains(lam, e)
    # starred moves leave the slice
    from crystalpaths.star import starred_f
    s = starred_f(u, 1)
    assert s is not None and not bmax_contains(lam, s)


def test_enum_bmax_closed_under_membership():
    lam = classical(2, 0)
    members = enum_bmax(lam, c_bound=1, depth=3)
    assert len(members) > 5
    for e in members.values():
        assert bmax_contains(lam, e)


def test_enum_bminus_star_counts_and_contents():
    lam = classical(2, 0)
    out = enum_bminus_star(lam, span=3)
    # (2*span + 1) base positions x 2^(n-1) gap patterns
    assert len(out) == 7 * 2
    keys = {e.key() for e in out}
    assert u_lambda(lam).key() in keys
    for e in out:
        assert e.wt() == lam
        assert is_extremal(e)


def test_enum_bminus_star_zero_weight():
    lam = classical(0, 1)
    out = enum_bminus_star(lam)
    assert len(out) == 1 and out[0] == u_lambda(lam)


def test_bminus_star_starts_are_extremal_by_their_walls():
    # one element per gap pattern and base position, whatever the level;
    # each has walls of the sign of m (none at m = 0) and passes the
    # bounded walk far beyond pw-verify's bounds, and C1 reads no word
    # bound: its verdict is the same at every one
    for m in range(-6, 7):
        for l in (-2, 0, 1):
            lam = classical(m, l)
            for span in (1, 2, 3):
                out = enum_bminus_star(lam, span=span)
                assert len(out) == bminus_star_count(lam, span), (m, l, span)
                for e in out:
                    assert e.wall_sign() == (m > 0) - (m < 0), (m, l, span)
                    assert is_extremal(e, 12), (m, l, span)
            c1 = {verify_component(lam, 5, word_bound)[0] for word_bound in range(13)}
            assert c1 == {True}, (m, l)


# -- extremality from statistics against the image-based definitions ---------

letters = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
mods = st.builds(lambda b1, m, l, b2: ModElement(b1, classical(m, l), b2),
                 letters.map(from_word), st.integers(min_value=-4, max_value=4),
                 st.integers(min_value=-2, max_value=2),
                 letters.map(lambda vals: right_path(dict(enumerate(vals)))))


@settings(max_examples=300, deadline=None)
@given(mods, st.sampled_from([0, 1]))
def test_operators_are_undefined_exactly_where_the_statistics_vanish(b, i):
    assert b.eps(i) >= 0 and b.phi(i) >= 0
    assert (b.e(i) is None) == (b.eps(i) == 0)
    assert (b.f(i) is None) == (b.phi(i) == 0)
    assert b.pairing(i) == b.wt().pairing(i)


def image_locally_extremal(e):
    """The definition: no e_i image where <h_i, wt> >= 0 and no f_i image
    where <h_i, wt> <= 0, with the images built through the nested tensor
    product b1 (x) t_lam (x) b2 by single steps."""
    t = TensorElement(TensorElement(e.b1, TElement(e.lam)), e.b2)
    for i in (0, 1):
        n = e.wt().pairing(i)
        if n >= 0 and single_step(t, i, True) is not None:
            return False
        if n <= 0 and single_step(t, i, False) is not None:
            return False
    return True


def image_cert(e, max_len):
    """(extremal, witness) by the image-based test, with S_i taken one
    single step at a time on the nested tensor product."""
    if not image_locally_extremal(e):
        return False, []
    for start in (0, 1):
        cur, color, word = e, start, []
        for _ in range(max_len):
            word.append(color)
            n = cur.wt().pairing(color)
            t = single_steps(
                TensorElement(TensorElement(cur.b1, TElement(cur.lam)), cur.b2), color, n)
            if t is None:
                return False, word
            cur = ModElement(t.left.left, cur.lam, t.right)
            if not image_locally_extremal(cur):
                return False, word
            color = 1 - color
    return True, None


@settings(max_examples=300, deadline=None)
@given(mods)
def test_local_extremality_matches_the_image_test(b):
    assert _locally_extremal(b) == image_locally_extremal(b)


@settings(max_examples=150, deadline=None)
@given(mods, st.integers(min_value=0, max_value=6))
def test_extremal_cert_matches_the_image_test(b, max_len):
    cert = extremal_cert(b, max_len)
    assert (cert.extremal, cert.witness) == image_cert(b, max_len)


def test_extremal_cert_matches_the_image_test_on_extremal_elements():
    # random elements are rarely extremal; the Weyl orbits of u_lam and the
    # star images of B(-lam) are
    for m in (-3, -2, 1, 2, 3):
        for e in enum_bminus_star(classical(m, 1), span=2):
            cert = extremal_cert(e, 6)
            assert cert.extremal and (cert.extremal, cert.witness) == image_cert(e, 6)
            moved = e.f(0) or e.e(0)  # one step off the Weyl orbit
            cert = extremal_cert(moved, 4)
            assert (cert.extremal, cert.witness) == image_cert(moved, 4)


# -- extremality read off the walls (levelpath.is_extremal_by_walls) ----------


@cache
def wall_test_elements():
    """(structured, random): the nodes of u_lam's components to depth 5 for
    |m| <= 4 and l in {0, 1} with the B^max elements of the benchmark
    weights and their star images; and seeded random elements, of random
    letters with |m| <= 6 and of random uniform walls."""
    structured = {}
    for m, l in product(range(-4, 5), (0, 1)):
        for _, _, c, k, new in explore([u_lambda(classical(m, l))], plain_moves, 5):
            if new:
                structured.setdefault(k, c)
    for m, l in BENCH_LAMBDAS:
        for b in enum_bmax(classical(m, l), 1, 3).values():
            for e in (b, star_mod(b)):
                structured.setdefault(e.key(), e)
    rng = random.Random(1207)
    rand = []
    for _ in range(4000):
        b1 = from_word([rng.randint(-3, 3) for _ in range(rng.randint(0, 6))])
        b2 = right_path(dict(enumerate(rng.randint(-3, 3) for _ in range(rng.randint(0, 6)))))
        rand.append(ModElement(b1, classical(rng.randint(-6, 6), rng.randint(-2, 2)), b2))
    for _ in range(400):
        walls = [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))]
        rand.append(lp_split(uniform_wall_path(walls, rng.choice((1, -1)),
                                               rng.randint(-2, 2))))
    return list(structured.values()), rand


def test_the_signature_is_the_running_wall_sum():
    # eps_i is the maximum over k of A_k(i) = sgn(i) * R_k, R_k the sum of
    # the walls at or left of k, from 0 far left to -<h_i, wt> far right
    structured, rand = wall_test_elements()
    for x in structured + rand:
        for i in COLORS:
            sgn = 1 if i == 1 else -1
            running = list(accumulate(sgn * s for _, s in x.walls()))
            assert x.eps(i) == max([0] + running)
            assert -x.pairing(i) == (running[-1] if running else 0)


def test_walls_of_one_sign_make_an_element_locally_extremal():
    # L1: eps_i = max(0, -<h_i, wt>) for both colors
    structured, rand = wall_test_elements()
    single = [x for x in structured + rand if is_extremal_by_walls(x)]
    for x in single:
        assert all(x.eps(i) == max(0, -x.pairing(i)) for i in COLORS)
        assert _locally_extremal(x)
    assert len(single) > 1500


def test_weyl_op_moves_walls_of_one_sign_one_place_and_flips_them():
    # L2: S_i takes walls of one sign one place right when it raises and
    # one place left when it lowers, each with the other sign
    structured, rand = wall_test_elements()
    moved = 0
    for x in structured + rand:
        if not is_extremal_by_walls(x):
            continue
        for i in COLORS:
            shift = 1 if x.pairing(i) < 0 else -1
            image = weyl_op(x, i)
            assert image.walls() == [(k + shift, -s) for k, s in x.walls()]
            assert is_extremal_by_walls(image)
            moved += bool(x.walls())
    assert moved > 3000


def test_walls_agree_with_the_bounded_walk():
    # on u_lam's components and the B^max elements the wall predicate is the
    # walk's verdict at 4 and at 8; on random elements, walls of one sign
    # pass at 4 and 8, and mixed ones all fail a walk of 64, though a few
    # pass at 8
    structured, rand = wall_test_elements()
    counts = {True: 0, False: 0}
    long_witness = 0
    for x in structured:
        single = is_extremal_by_walls(x)
        assert single == is_extremal(x, 4) == is_extremal(x, 8)
        counts[single] += 1
    for x in rand:
        if is_extremal_by_walls(x):
            assert is_extremal(x, 4) and is_extremal(x, 8)
        else:
            assert not is_extremal(x, 64)
            long_witness += is_extremal(x, 8)
    assert counts[True] > 350 and counts[False] > 300 and long_witness > 0


def orbit_by_definition(e, length, max_len):
    """weyl_orbit by its docstring: the keys of e and of its images along
    both phases up to length letters, each image taken by weyl_op; None
    when e is not locally extremal or one of those images fails
    extremal_cert at max_len."""
    if not extremal_cert(e, 0).extremal:
        return None
    keys = {e.key()}
    for start in COLORS:
        cur, color = e, start
        for _ in range(length):
            try:
                cur = weyl_op(cur, color)
            except RuntimeError:
                return None
            if not extremal_cert(cur, max_len).extremal:
                return None
            keys.add(cur.key())
            color = 1 - color
    return keys


def test_weyl_orbit_matches_its_definition():
    # u_lam of the benchmark weights, whose orbits never end, and locally
    # extremal mixed-wall elements whose orbit line first fails 2 to 14
    # letters out, up to 2 per distance, so that the bounded checks cut an
    # orbit inside its length, just past it and not at all
    _, rand = wall_test_elements()
    by_reach: dict = {}
    for x in rand:
        if x.wall_sign() is None and _locally_extremal(x):
            reach = next(n for n in range(1, 65) if orbit_by_definition(x, n, 0) is None)
            if reach >= 2 and len(by_reach.setdefault(reach, [])) < 2:
                by_reach[reach].append(x)
    failing = [x for group in by_reach.values() for x in group]
    cut = {True: 0, False: 0}
    for e in [u_lambda(classical(m, l)) for m, l in BENCH_LAMBDAS] + failing:
        for length, max_len in product(range(9), range(7)):
            expected = orbit_by_definition(e, length, max_len)
            assert weyl_orbit(e, length, max_len) == expected, (e, length, max_len)
            cut[expected is None] += 1
    assert max(by_reach) >= 10 and min(cut.values()) > 500


# -- the S-walks of one pw-verify command ------------------------------------


def walk_cert(e, max_len):
    """(extremal, witness) by the alternating walks, each S_i computed
    afresh with weyl_op."""
    if not _locally_extremal(e):
        return False, []
    for start in (0, 1):
        cur, color, word = e, start, []
        for _ in range(max_len):
            word.append(color)
            try:
                cur = weyl_op(cur, color)
            except RuntimeError:
                return False, word
            if not _locally_extremal(cur):
                return False, word
            color = 1 - color
    return True, None


def checked_elements(monkeypatch, capsys, m, l):
    """The elements whose extremality pw-verify --lambda=m,l decides: the
    arguments of extremal_cert, the nodes of decompose's searches whose
    walls all carry one sign (their verdict, read off the walls), then the
    S-images of u_lam that C3 walks."""
    from crystalpaths import cli, extremal, peterweyl
    original = extremal.extremal_cert
    search = peterweyl.explore
    seen = {}

    def recording(e, *args, **kwargs):
        seen.setdefault(e.key(), e)
        return original(e, *args, **kwargs)

    def searching(*args):
        for step in search(*args):
            _, _, x, k, new = step
            if new and is_extremal_by_walls(x):
                seen.setdefault(k, x)
            yield step

    with monkeypatch.context() as patch:
        patch.setattr(extremal, "extremal_cert", recording)
        patch.setattr(peterweyl, "explore", searching)
        assert cli.main(["pw-verify", f"--lambda={m},{l}"]) == 0
    capsys.readouterr()
    for start in (0, 1):
        cur, color = u_lambda(classical(m, l)), start
        for _ in range(8):
            cur = weyl_op(cur, color)
            seen.setdefault(cur.key(), cur)
            color = 1 - color
    return list(seen.values())


def test_extremal_cert_matches_the_fresh_walk(monkeypatch, capsys):
    # the certificate of every element a command checks, at two word
    # bounds, is the one the walk by its definition gives, on the
    # non-extremal elements as well
    witnesses = []
    for m, l in BENCH_LAMBDAS:
        elements = checked_elements(monkeypatch, capsys, m, l)
        certs = [extremal_cert(e, bound) for e in elements for bound in (4, 8)]
        walked = [walk_cert(e, bound) for e in elements for bound in (4, 8)]
        for c, w in zip(certs, walked, strict=True):
            assert (c.extremal, c.witness) == w
            if not c.extremal:
                witnesses.append(len(c.witness))
    assert min(witnesses) == 0 and max(witnesses) >= 2


def test_pw_verify_weyl_step_count_is_pinned(monkeypatch, capsys):
    from crystalpaths import cli
    calls = counted_weyl_ops(monkeypatch)
    assert cli.main(["pw-verify", "--lambda=4,0"]) == 0
    first = len(calls)
    # C3's walks alone: C1's starts and the slice report read extremality
    # off the walls and take no step; C3 walks u_lam's orbit 8 + 4 letters
    # in each phase (24), and the walks from the 6 locally extremal nodes
    # off the orbit end within 2 letters (9); no step is taken twice
    assert first == 33 and len(set(calls)) == first
    # nothing outlives the command: the same call does the same work again
    calls.clear()
    assert cli.main(["pw-verify", "--lambda=4,0"]) == 0
    assert len(calls) == first
    capsys.readouterr()


def test_decompose_computes_no_weyl_step(monkeypatch):
    # decompose reads extremality off the walls: it computes no S_i step,
    # on every star image the benchmark weights' slice reports decompose
    from crystalpaths.peterweyl import DECOMPOSE_DEPTH, _star_pairs
    pairs = []
    for m, l in BENCH_LAMBDAS:
        lam = classical(m, l)
        pairs += _star_pairs(lam, enum_bmax(lam, 1, 3), 3)[1]
    calls = counted_weyl_ops(monkeypatch)
    found = sum(decompose(None, DECOMPOSE_DEPTH, e_star=y) is not None for _, (_, _, y) in pairs)
    assert found == len(pairs) > 2500
    assert calls == []
