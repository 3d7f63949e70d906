"""End-to-end acceptance checks for the crystal engine.

Each test verifies one acceptance criterion and prints a single PASS/FAIL
line (visible with pytest -s, or in the captured output block on failure).
The checks are exhaustive or oracle-driven on explicit finite windows; the
per-criterion wall-clock budgets are asserted too.
"""

import itertools
import random
import time

from crystalpaths import (SeqElement, bfs_component, bmax_contains, bmax_seed,
                          enum_bminus_star, graphs_isomorphic, image_check,
                          is_extremal, left_path, lp_join, lp_split,
                          path_from_window, pw_report, slice_keys,
                          slice_invariant_under_reflection, star_binf,
                          star_extremal_closed, star_half_closed, star_mod,
                          u_inf, u_lambda, verify_component)
from crystalpaths.extremal import uniform_wall_path
from crystalpaths.seqreal import (is_monotone, seq_generator,
                                  seq_to_path, block_transform)
from crystalpaths.star import starred_e, starred_f
from crystalpaths.weights import classical

from conftest import agree_with_oracle, left_signature, nested_sum_signature, same_entries


def report(n: int, desc: str, ok: bool) -> None:
    print(f"criterion {n} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed"


# -- shared enumerations -----------------------------------------------------

LAMBDA_LIST = (classical(0, 0), classical(1, 0), classical(2, 0), classical(2, 1))


def mod_component(lam, depth):
    graph = bfs_component(u_lambda(lam), depth)
    return [graph.nodes[k] for k in sorted(graph.nodes)]


def binf_elements(depth):
    graph = bfs_component(u_inf(), depth)
    return [graph.nodes[k] for k in sorted(graph.nodes)]


def path_length(b) -> int:
    """Total finite-domain length of a half-path: the support length when
    walls exist."""
    walls = b.wall_positions()
    return -walls[0] if walls else 0


def uniform_wall_halfpaths(max_length):
    """All uniform-wall left paths of positive length up to max_length,
    enumerated by wall sign and the letter word of the finite stretch."""
    out = []
    for b in binf_elements(8):
        sign = b.wall_sign()
        if sign in (-1, 1) and path_length(b) <= max_length:
            out.append(b)
    return out


def monotone_seqs(max_length, max_value):
    out = []
    for length in range(max_length + 1):
        for vals in itertools.product(range(max_value, 0, -1), repeat=length):
            if all(vals[j + 1] <= vals[j] for j in range(length - 1)):
                out.append(SeqElement(0, vals))
    return out


def b2_membership(b):
    """Even positions nonnegative, odd nonpositive, |entries| nondecreasing."""
    supp = b.support()
    if not supp:
        return True
    letters = b.as_dict()
    for k in range(min(supp), 0):
        v = letters.get(k, 0)
        if k % 2 == 0 and v < 0:
            return False
        if k % 2 == 1 and v > 0:
            return False
        if abs(letters.get(k - 1, 0)) > abs(v):
            return False
    return True


def enumerated_extremal_paths(max_m=4, max_window=10):
    out = []
    for m in range(-max_m, max_m + 1):
        if m == 0:
            continue
        n, sgn = abs(m), (1 if m > 0 else -1)
        for gaps in itertools.product((0, 1), repeat=n - 1):
            for t in range(-4, 5):
                walls = [t]
                for g in gaps:
                    walls.append(walls[-1] + g)
                for l in (0, 1):
                    p = uniform_wall_path(walls, sgn, l)
                    a, b = p.window()
                    if b - a + 1 > max_window:
                        continue
                    if is_extremal(lp_split(p)):
                        out.append(p)
    return out


# -- criteria ----------------------------------------------------------------


def test_criterion_1_golden_star_example():
    t0 = time.time()
    p = path_from_window(2, 0, -5, [-1, 1, -2, 2, -2, 1, -1, 1, -2, 2])
    expected = path_from_window(4, 4, -5, [-1, 1, -2, 2, -2, 3, -3, 3, -4, 4])
    closed = star_extremal_closed(p)
    algorithmic = lp_join(star_mod(lp_split(p)))
    elapsed = time.time() - t0
    ok = closed == expected and algorithmic == expected and elapsed < 1.0
    report(1, "golden star example", ok)


def test_criterion_2_tensor_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    # exhaustive: support in [-6, -1], entries in [-3, 3]
    for combo in itertools.product(range(-3, 4), repeat=6):
        entries = {k - 6: v for k, v in enumerate(combo) if v != 0}
        if not agree_with_oracle(left_path(entries), 8):
            mismatches += 1
    # plus 10^4 random reachable elements
    rng = random.Random(20260826)
    for _ in range(10_000):
        b = u_inf()
        for _ in range(rng.randrange(13)):
            i = rng.randrange(2)
            nxt = b.f(i) if rng.random() < 0.7 else b.e(i)
            if nxt is not None:
                b = nxt
        if not agree_with_oracle(b, 15):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(2, f"tensor-oracle equivalence, 0 of {7**6 + 10_000} mismatch", ok)


def test_criterion_3_realization_isomorphism():
    t0 = time.time()
    g_path = bfs_component(u_inf(), 8)
    g_seq = bfs_component(seq_generator(0), 8)
    iso = graphs_isomorphic(g_path, g_seq)
    in_image = all(image_check(s) for s in g_seq.nodes.values())
    elapsed = time.time() - t0
    ok = iso and in_image and len(g_path.nodes) == len(g_seq.nodes) and elapsed < 60.0
    report(3, "sequence/path realization isomorphism to depth 8", ok)


def test_criterion_4_star_involution_and_weight():
    ok = True
    for b in binf_elements(8):
        if star_binf(star_binf(b)) != b or star_binf(b).wt() != b.wt():
            ok = False
            break
    # on the three-factor crystal, star swaps the element weight with the
    # negated marker weight; the involution must still hold on the nose
    if ok:
        for lam in LAMBDA_LIST:
            for e in mod_component(lam, 5):
                s = star_mod(e)
                if star_mod(s) != e or s.wt() != -e.lam or s.lam != -e.wt():
                    ok = False
                    break
            if not ok:
                break
    report(4, "star involution and weight preservation", ok)


def test_criterion_5_starred_plain_commutativity():
    t0 = time.time()
    ok = True
    plain = {"e": lambda e, i: e.e(i), "f": lambda e, i: e.f(i)}
    starred = {"e": starred_e, "f": starred_f}
    for lam in LAMBDA_LIST:
        for e in mod_component(lam, 5):
            for pk, pi in itertools.product(("e", "f"), (0, 1)):
                for sk, si in itertools.product(("e", "f"), (0, 1)):
                    a = plain[pk](e, pi)
                    a = starred[sk](a, si) if a is not None else None
                    b = starred[sk](e, si)
                    b = plain[pk](b, pi) if b is not None else None
                    if a != b:
                        ok = False
    elapsed = time.time() - t0
    report(5, "starred/plain operator commutativity", ok and elapsed < 120.0)


def test_criterion_6_closed_forms_vs_algorithm():
    ok = True
    # block transform matches the crystal correspondence on monotone seqs
    for s in monotone_seqs(6, 4):
        if block_transform(s) != seq_to_path(s):
            ok = False
    # closed-form star on uniform-wall left paths, and on right paths via
    # the side flip, match the peeling algorithm
    for b in uniform_wall_halfpaths(6):
        if star_half_closed(b) != star_binf(b):
            ok = False
        r = b.flip()
        if star_half_closed(r) != star_binf(b).flip():
            ok = False
    # closed-form star on extremal level paths matches split/star/join
    paths = enumerated_extremal_paths()
    assert len(paths) > 50
    for p in paths:
        if star_extremal_closed(p) != lp_join(star_mod(lp_split(p))):
            ok = False
    report(6, "closed forms agree with the algorithmic star", ok)


def test_criterion_7_structural_identities():
    ok = True
    # entry-shift identity: raising all the way along the wall color shifts
    # the letters one slot right and negates them
    for b in uniform_wall_halfpaths(6):
        sign = b.wall_sign()
        color = 0 if sign < 0 else 1
        cur = b
        for _ in range(b.eps(color)):
            cur = cur.e(color)
        lo = min(b.support(), default=0) - 2
        old, new = b.as_dict(), cur.as_dict()
        if any(new.get(k, 0) != -old.get(k - 1, 0) for k in range(lo, 0)):
            ok = False
    # length drop: on the distinguished families the full raise along the
    # parity-chosen color shortens the support by exactly one
    for s in monotone_seqs(6, 4):
        if len(s.a) == 0:
            continue
        i = 1 if len(s.a) % 2 == 0 else 0
        cur = s
        for _ in range(cur.eps(i)):
            cur = cur.e(i)
        if len(cur.a) != len(s.a) - 1:
            ok = False
    for b in uniform_wall_halfpaths(6):
        if not b2_membership(b) or path_length(b) == 0:
            continue
        i = 1 if path_length(b) % 2 == 0 else 0
        cur = b
        for _ in range(cur.eps(i)):
            cur = cur.e(i)
        if path_length(cur) != path_length(b) - 1:
            ok = False
    # signature equality between corresponding sequence/path elements:
    # the sequence value at position p equals the path value at -p
    for s in monotone_seqs(6, 4):
        b = block_transform(s)
        for i in (0, 1):
            ssig = nested_sum_signature(s, i)
            bsig = left_signature(b, i)
            shared = set(ssig) & {-k for k in bsig}
            if not all(ssig[p] == bsig[-p] for p in shared):
                ok = False
            if ssig and bsig and max(ssig.values()) != max(bsig.values()):
                ok = False
    # stability of both families under raising
    for s in monotone_seqs(6, 4):
        for i in (0, 1):
            up = s.e(i)
            if up is not None and not (is_monotone(up) and up.first_color == 0):
                ok = False
    for b in uniform_wall_halfpaths(6):
        if not b2_membership(b):
            continue
        for i in (0, 1):
            up = b.e(i)
            if up is not None and not b2_membership(up):
                ok = False
    report(7, "shift, length-drop, signature, and stability identities", ok)


def test_criterion_8_component_and_slice_verification():
    t0 = time.time()
    ok = True
    for m in (1, 2, 3):
        for dl in (0, 1):
            lam = classical(m, dl)
            if not all(verify_component(lam, depth=5, word_bound=8)):
                ok = False
    r1 = pw_report(classical(1, 0), c_bound=1, depth=3)
    r2 = pw_report(classical(2, 0), c_bound=1, depth=3)
    for r in (r1, r2):
        if not r.ok or r.pair_count != r.bmax_size * r.dual_size:
            ok = False
        if r.decompose_inconclusive != 0:
            ok = False
    k1, k2 = slice_keys(classical(1, 0), 1, 3), slice_keys(classical(2, 0), 1, 3)
    if not (k1 and k2 and k1.isdisjoint(k2)):
        ok = False
    if not (slice_invariant_under_reflection(classical(1, 0), 1)
            and slice_invariant_under_reflection(classical(2, 0), 0)):
        ok = False
    elapsed = time.time() - t0
    report(8, "component checks and slice decomposition", ok and elapsed < 300.0)


def test_criterion_9_bmax_seed_structure():
    lam = classical(2, 0)
    ok = True
    for c1 in (0, 1, 2, 3):
        seed = bmax_seed(lam, (c1,))
        e = lp_split(seed)
        starred = lp_join(star_mod(e))
        if not same_entries(seed, starred):
            ok = False
        if not bmax_contains(lam, e):
            ok = False
        # every depth-4 element of the seed's plain component stays inside
        graph = bfs_component(e, 4)
        for node in graph.nodes.values():
            if not bmax_contains(lam, node):
                ok = False
    report(9, "star-fixed seeds and their components", ok)
