import gc
import importlib
import json
import pkgutil
import random
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from hypothesis import given, settings, strategies as st

import crystalpaths
from crystalpaths import Weight, bfs_component, check_axioms, graphs_isomorphic
from crystalpaths import from_word, u_inf
from crystalpaths.core import (ComponentGraph, CrystalElement, explore, lockstep,
                               plain_moves)
from crystalpaths.extremal import enum_bmax
from crystalpaths.levelpath import u_lambda
from crystalpaths.seqreal import seq_generator
from crystalpaths.weights import classical

import crystals
from conftest import random_walk, reference_check_axioms
from crystals import BiElement, DualElement, EndMarker, LimitEntry, TElement, TensorElement

NEG_INF = float("-inf")


def test_bi_element_statistics():
    # (n)_i carries eps_i = -n, phi_i = n and -inf for the other color.
    b = BiElement(1, 3)
    assert b.eps(1) == -3 and b.phi(1) == 3
    assert b.eps(0) == NEG_INF and b.phi(0) == NEG_INF
    assert b.e(1).n == 4 and b.f(1).n == 2
    assert b.e(0) is None and b.f(0) is None
    assert b.wt() == 3 * Weight(-2, 2, 0)


def test_t_lambda_is_inert():
    t = TElement(Weight(1, -1, 0))
    assert t.eps(0) == NEG_INF and t.phi(1) == NEG_INF
    assert t.e(0) is None and t.f(1) is None
    assert t.wt() == Weight(1, -1, 0)


def test_limit_entry_operators():
    z = LimitEntry(0)
    assert z.e(1).n == -1 and z.f(1).n == 1
    assert z.e(0).n == 1 and z.f(0).n == -1
    assert z.eps(1) == 0 and z.phi(1) == 0
    assert LimitEntry(2).eps(1) == 2 and LimitEntry(2).phi(1) == -2
    assert LimitEntry(2).wt() == Weight(4, -4, 0)


def test_end_marker_is_slack_neutral():
    m = EndMarker("left")
    assert m.wt() == Weight(0, 0, 0)
    assert m.eps(0) == 0 and m.phi(1) == 0
    assert m.e(1) is None and m.f(0) is None


def test_tensor_statistics():
    # eps(x (x) y) = max(eps(x), eps(y) - <h, wt(x)>), and dually for phi.
    x, y = LimitEntry(1), LimitEntry(-2)
    t = TensorElement(x, y)
    for i in (0, 1):
        assert t.eps(i) == max(x.eps(i), y.eps(i) - x.wt().pairing(i))
        assert t.phi(i) == max(y.phi(i), x.phi(i) + y.wt().pairing(i))
    assert t.wt() == x.wt() + y.wt()


def reference_stats(b, i):
    """(pairing, eps, phi) of color i by the formulas of the core module
    docstring, recursing into every factor with nothing cached."""
    if isinstance(b, TensorElement):
        p1, e1, f1 = reference_stats(b.left, i)
        p2, e2, f2 = reference_stats(b.right, i)
        return p1 + p2, max(e1, e2 - p1), max(f2, f1 + p2)
    if isinstance(b, DualElement):
        p, e, f = reference_stats(b.inner, i)
        return -p, f, e
    return b.wt().pairing(i), b.eps(i), b.phi(i)


small = st.integers(min_value=-3, max_value=3)
factors = st.one_of(
    st.builds(LimitEntry, small),
    st.just(EndMarker("left")),
    st.builds(lambda a0, a1, d: TElement(Weight(a0, a1, d)), small, small, small),
    st.builds(BiElement, st.sampled_from([0, 1]), small))
tensor_words = st.recursive(
    factors,
    lambda inner: st.one_of(st.builds(TensorElement, inner, inner),
                            st.builds(DualElement, inner)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(tensor_words)
def test_tensor_statistics_match_the_uncached_formulas(b):
    for i in (0, 1):
        assert (b.pairing(i), b.eps(i), b.phi(i)) == reference_stats(b, i)
        assert b.pairing(i) == b.wt().pairing(i)


def test_tensor_routing_ties():
    # e acts on the left factor iff phi(left) >= eps(right); f acts on the
    # left iff phi(left) > eps(right).  Ties route e left and f right.
    x, y = LimitEntry(0), LimitEntry(0)  # phi_1(x) = eps_1(y) = 0
    t = TensorElement(x, y)
    te = t.e(1)
    assert (te.left.n, te.right.n) == (-1, 0)
    tf = t.f(1)
    assert (tf.left.n, tf.right.n) == (0, 1)


def test_tensor_with_inert_factor_mixes_neg_inf():
    t = TensorElement(TElement(Weight(2, -2, 0)), LimitEntry(0))
    # eps_1 = max(-inf, 0 - (-2)) = 2, phi_1 = max(0, -inf + ...) = 0
    assert t.eps(1) == 2 and t.phi(1) == 0
    assert t.eps(0) == -2 and t.phi(0) == 0
    # operators can only act on the live factor
    assert t.e(1).right.n == -1
    assert t.f(1).right.n == 1


def tensor_sample():
    # BiElement weights carry the full affine weight including the delta
    # coordinate, so the axioms hold on the nose for their tensor products.
    # (Single path letters only track the classical direction; their delta
    # part lives in the position-weighted path formula.)
    sample = [TensorElement(BiElement(1, a), BiElement(0, b))
              for a in range(-2, 3) for b in range(-2, 3)]
    sample += [TensorElement(BiElement(i, a), BiElement(i, b))
               for i in (0, 1) for a in range(-2, 3) for b in range(-2, 3)]
    return sample


def test_check_axioms_on_tensor_sample():
    assert check_axioms(tensor_sample()) == []


# Broken element types, each closed under its operators so that key() still
# identifies an element (check_axioms relies on it).


class Broken(LimitEntry):
    """phi off by one."""

    def ends(self, i):
        eps, phi = super().ends(i)
        return eps, phi + 1

    def power(self, i, n):
        return Broken(super().power(i, n).n)


@dataclass(frozen=True)
class Flipping(BiElement):
    """e_i flips a tag that f_i keeps, so e_i and f_i are not inverse."""

    tag: int = 0

    def power(self, i, n):
        c = super().power(i, n)
        return None if c is None else Flipping(c.color, c.n, self.tag ^ (n < 0))

    def key(self):
        return ("flipping", self.color, self.n, self.tag)


class Tilted(BiElement):
    """A delta part n on the weight of (n)_i, so e_i and f_i shift the
    weight by alpha_i -+ delta."""

    def wt(self):
        return super().wt() + Weight(0, 0, self.n)

    def power(self, i, n):
        c = super().power(i, n)
        return None if c is None else Tilted(c.color, c.n)


def test_check_axioms_flags_broken_element():
    problems = check_axioms([Broken(0)])
    assert problems


def axiom_samples():
    """Named element lists for the differential test; the broken ones
    are named "broken: ..."."""
    lams = ((0, 0), (1, 0), (2, 1), (-2, 0), (3, -1))
    rng = random.Random(5)
    mod_roots = [u_lambda(classical(m, l)) for m, l in lams]
    mod_roots += [random_walk(root, 6, rng) for root in mod_roots]
    yield "binf path", bfs_component(u_inf(), 6).nodes.values()
    yield "binf seq", bfs_component(seq_generator(0), 6).nodes.values()
    for root in mod_roots:
        yield f"mod {root!r}", bfs_component(root, 3).nodes.values()
    for m in (5, -5):
        yield f"bmax {m}", enum_bmax(classical(m, 0), 1, 3).values()
    yield "tensor sample", tensor_sample()
    broken = list(bfs_component(Broken(0), 3).nodes.values())
    yield "broken: phi off by one", broken + broken[:3]
    yield "broken: phi off by one, one element", [Broken(0)]
    yield "broken: e not inverse to f", bfs_component(Flipping(1, 0), 3).nodes.values()
    yield "broken: wrong weight shift", bfs_component(Tilted(0, 0), 3).nodes.values()
    yield "broken: tensors", [TensorElement(x, BiElement(1, b)) for b in range(-2, 3)
                             for x in (Broken(b), Flipping(1, b), Tilted(1, b))]


def test_check_axioms_matches_the_reference_checker():
    for name, elements in axiom_samples():
        elements = list(elements)
        expected = reference_check_axioms(elements)
        assert check_axioms(elements) == expected, name
        assert bool(expected) == name.startswith("broken"), name


def test_check_axioms_computes_each_image_once():
    calls = Counter()

    class Counting(LimitEntry):
        def power(self, i, n):
            calls[self.n, i, n] += 1
            return Counting(super().power(i, n).n)

    nodes = list(bfs_component(Counting(0), 3).nodes.values())
    calls.clear()
    check_axioms(nodes)
    assert len(calls) == 4 * len(nodes) + 4  # e and f of both colors, and back from the ends
    assert [entry for entry, count in calls.items() if count > 1] == []


def test_check_axioms_reads_the_statistics_once_per_fact(monkeypatch):
    # each (eps_i, phi_i) is one ends(i) and both images of a color one
    # arrows(i): at most 7 halfpath._statistics scans per element and
    # color, counted under every name that binds them in the library
    from crystalpaths import halfpath
    calls = []
    scan = halfpath._statistics
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "crystalpaths" and getattr(module, "_statistics", None) is scan:
            monkeypatch.setattr(module, "_statistics",
                                lambda *args: calls.append(None) or scan(*args))
    nodes = list(enum_bmax(classical(5, 0), 1, 3).values())
    calls.clear()
    assert check_axioms(nodes) == []
    assert len(nodes) > 100
    assert len(calls) <= 7 * 2 * len(nodes)


def test_check_axioms_leaves_no_garbage():
    nodes = list(bfs_component(u_lambda(classical(2, 0)), 4).nodes.values())
    gc.collect()
    gc.disable()
    try:
        assert check_axioms(nodes) == []
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dual_element_swaps_everything():
    b = TensorElement(LimitEntry(1), LimitEntry(0))
    d = DualElement(b)
    for i in (0, 1):
        assert d.eps(i) == b.phi(i)
        assert d.phi(i) == b.eps(i)
    assert d.wt() == -b.wt()
    assert d.e(1).inner == b.f(1)
    assert d.f(0).inner == b.e(0)


def test_dual_tensor_swap():
    t = TensorElement(BiElement(1, 1), BiElement(0, -1))
    s = TensorElement(DualElement(t.right), DualElement(t.left))
    assert s.left.inner == t.right and s.right.inner == t.left
    assert check_axioms([s]) == []


def test_bfs_component_truncation_and_edges():
    g = bfs_component(LimitEntry(0), 3)
    # letters -3..3 are reachable within 3 steps of either operator
    assert len(g.nodes) == 7
    assert max(g.depth.values()) == 3
    for src, dst, i in g.edges:
        assert src in g.nodes and dst in g.nodes and i in (0, 1)
    # deterministic output
    assert g.to_json() == bfs_component(LimitEntry(0), 3).to_json()


def _reference_json(g):
    """ComponentGraph.to_json as first written: one payload through
    json.dumps with indent=2."""
    return json.dumps({
        "root": g.root,
        "nodes": [{"id": nid, "wt": {"L0": w.a0, "L1": w.a1, "delta": w.d},
                   "depth": g.depth[nid]}
                  for nid, w in sorted((nid, b.wt()) for nid, b in g.nodes.items())],
        "edges": [{"src": s, "dst": d, "color": i} for s, d, i in sorted(g.edges)],
    }, indent=2)


def test_to_json_matches_the_indented_dumps():
    graphs = [bfs_component(u_inf(), 6), bfs_component(u_lambda(classical(3, 1)), 4),
              bfs_component(u_lambda(classical(-2, 0)), 3), bfs_component(LimitEntry(0), 3),
              bfs_component(u_inf(), 0), ComponentGraph(root="empty")]
    assert graphs[-2].edges == [] and len(graphs[-2].nodes) == 1
    for g in graphs:
        assert g.to_json() == _reference_json(g)


def events(roots, depth, moves=plain_moves):
    return [(pkey, m, ckey, new)
            for pkey, m, _, ckey, new in explore(roots, moves, depth)]


def test_explore_reports_every_move_in_discovery_order():
    # e_0 and f_1 raise a letter, f_0 and e_1 lower it: the second pair
    # leads back to nodes already seen
    assert events([LimitEntry(0)], 1) == [
        (None, None, ("z", 0), True),
        (("z", 0), ("e", 0), ("z", 1), True),
        (("z", 0), ("f", 0), ("z", -1), True),
        (("z", 0), ("e", 1), ("z", -1), False),
        (("z", 0), ("f", 1), ("z", 1), False),
    ]
    found = [c[1] for _, _, c, new in events([LimitEntry(0)], 2) if new]
    assert found == [0, 1, -1, 2, -2]
    # roots come first, in order; a repeated root is not new and not expanded
    evs = events([LimitEntry(5), LimitEntry(0), LimitEntry(5)], 1)
    assert [(c[1], new) for p, _, c, new in evs if p is None] == [
        (5, True), (0, True), (5, False)]
    assert [p[1] for p, _, _, _ in evs if p is not None] == [5] * 4 + [0] * 4


def test_explore_depth_bound():
    assert events([LimitEntry(0)], 0) == [(None, None, ("z", 0), True)]
    evs = events([LimitEntry(0)], 3)
    assert sorted(c[1] for _, _, c, new in evs if new) == [-3, -2, -1, 0, 1, 2, 3]
    # only nodes closer than the bound are expanded, four moves each
    assert {p[1] for p, _, _, _ in evs if p is not None} == {-2, -1, 0, 1, 2}
    assert len(evs) == 1 + 4 * 5


def test_explore_reports_undefined_moves():
    assert events([BiElement(0, 0)], 1)[1:] == [
        (("bi", 0, 0), ("e", 0), ("bi", 0, 1), True),
        (("bi", 0, 0), ("f", 0), ("bi", 0, -1), True),
        (("bi", 0, 0), ("e", 1), None, False),
        (("bi", 0, 0), ("f", 1), None, False),
    ]


def test_explore_stops_with_its_consumer():
    expanded = []

    def moves(b):
        expanded.append(b.n)
        return plain_moves(b)

    search = explore([LimitEntry(0)], moves, 10)
    next(search)
    assert expanded == []
    list(islice(search, 5))  # the root's four moves and the first of node 1
    assert expanded == [0, 1]
    search.close()
    assert expanded == [0, 1]


def test_each_node_is_keyed_once():
    keyed = []

    class Counted(LimitEntry):
        """A letter that records its key() calls."""

        def power(self, i, n):
            return Counted(super().power(i, n).n)

        def key(self):
            keyed.append(self.n)
            return super().key()

    # explore keys each root and each defined child once (every move of a
    # letter is defined), and yields that key
    evs = list(explore([Counted(5), Counted(0), Counted(5)], plain_moves, 2))
    assert sorted(keyed) == sorted(c.n for _, _, c, _, _ in evs)
    assert all(k == ("z", c.n) for _, _, c, k, _ in evs)
    # bfs_component and lockstep (before any walk) key no node again
    once = len(list(explore([LimitEntry(0)], plain_moves, 2)))
    for consume in (lambda root: bfs_component(root, 2),
                    lambda root: lockstep(root, plain_moves, 2, [Counted(0)])):
        keyed.clear()
        consume(Counted(0))
        assert len(keyed) == once


def test_graph_isomorphism_positive_and_negative():
    g1 = bfs_component(LimitEntry(0), 2)
    g2 = bfs_component(LimitEntry(0), 2)
    assert graphs_isomorphic(g1, g2)
    # same shape, different node weights
    g3 = bfs_component(LimitEntry(1), 2)
    assert not graphs_isomorphic(g1, g3)
    # different size
    g4 = bfs_component(LimitEntry(0), 3)
    assert not graphs_isomorphic(g1, g4)

    def graph(edges, **levels):
        # a hand-built graph rooted at "a"; node x holds LimitEntry(levels[x])
        return ComponentGraph(root="a", nodes={x: LimitEntry(n) for x, n in levels.items()},
                              edges=edges)

    chain = [("a", "b", 0), ("b", "c", 1)]
    path = graph(chain, a=0, b=1, c=2)
    assert graphs_isomorphic(path, graph(chain, a=0, b=1, c=2))
    # two f_0 arrows out of one node, and two into one node
    assert not graphs_isomorphic(path, graph(chain + [("a", "c", 0)], a=0, b=1, c=2))
    assert not graphs_isomorphic(graph([("a", "c", 0), ("b", "c", 0)], a=0, b=1, c=2),
                                 graph([("a", "c", 0), ("b", "c", 0)], a=0, b=1, c=2))
    # an exact repeated edge is the same arrow
    assert graphs_isomorphic(path, graph(chain + [("a", "b", 0)], a=0, b=1, c=2))
    # a node no arrow reaches
    assert not graphs_isomorphic(path, graph(chain, a=0, b=1, c=2, d=3))
    assert not graphs_isomorphic(graph(chain, a=0, b=1, c=2, d=3),
                                 graph(chain, a=0, b=1, c=2, d=3))
    # a weight mismatch two steps from the root
    assert not graphs_isomorphic(path, graph(chain, a=0, b=1, c=3))
    # node ids permuted
    assert graphs_isomorphic(path, graph([("c", "b", 1), ("a", "c", 0)], a=0, b=2, c=1))
    assert graphs_isomorphic(graph([("a", "x", 0), ("x", "y", 1)], a=0, x=1, y=2), path)
    # a root-only graph
    root = graph([], a=0)
    assert graphs_isomorphic(root, graph([], a=0))
    assert not graphs_isomorphic(root, path) and not graphs_isomorphic(path, root)


def test_graph_exports():
    g = bfs_component(LimitEntry(0), 2)
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == len(g.edges)
    assert '"root"' not in dot


def test_power_agrees_with_single_steps():
    b = from_word([1, -2, 3, -1])
    for i in (0, 1):
        for n in range(-5, 6):
            expect = b
            for _ in range(abs(n)):
                if expect is not None:
                    expect = expect.f(i) if n >= 0 else expect.e(i)
            assert b.power(i, n) == expect
    assert b.power(0, 0) is b


def test_power_is_none_once_a_step_is_undefined():
    assert u_inf().power(1, -1) is None
    assert u_inf().f(0).f(0).power(0, -3) is None
    assert BiElement(0, 2).power(1, 1) is None
    assert BiElement(0, 2).power(0, -3) == BiElement(0, 5)


def test_power_is_the_one_operator_of_every_element_type():
    # every element type answers power(i, n) itself; e/f are derived once,
    # on the base class (HalfPath restates them for bench/test_bench.py);
    # the generic crystals of the tests are held to the same rule
    modules = [importlib.import_module(f"crystalpaths.{info.name}")
               for info in pkgutil.iter_modules(crystalpaths.__path__)] + [crystals]
    types = []
    for module in modules:
        types += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, CrystalElement)
                  and obj.__module__ == module.__name__]
    names = {cls.__name__ for cls in types}
    assert names >= {"CrystalElement", "TensorElement", "DualElement", "TElement", "BiElement",
                     "LimitEntry", "EndMarker", "HalfPath", "SeqElement", "ModElement"}
    assert [cls.__name__ for cls in types if "power" not in vars(cls)] == []
    steps = {cls.__name__ for cls in types if {"e", "f"} & set(vars(cls))}
    assert steps == {"CrystalElement", "HalfPath"}
