"""Abstract crystal machinery shared by every concrete realization.

A crystal element exposes a weight, its pairings <h_i, wt> with the simple
coroots, string statistics eps(i)/phi(i) valued in the integers extended by
-infinity, and two string operations: power(i, n), the whole string f_i^n
for n >= 0 and e_i^(-n) for n < 0, None where it is undefined (None models
the formal zero element of the crystal axioms), and top(i), the pair
(eps_i(b), e_i^eps_i b) of the top of b's i-string.  ends(i) is the pair
(eps_i, phi_i), which half-paths, sequences and ModElement read in one
pass.  top defaults to eps followed by power; half-paths and sequences
override it with one sweep of their signature that reads eps_i and climbs
together.  The raising and
lowering operators e(i)/f(i) are power(i, -1)/power(i, 1), defined once on
the base class, and arrows(i) is the pair (e(i), f(i)), which ModElement
computes from one read of its statistics.  On top of that protocol this
module builds the tensor rule for strings (_string_split, which ModElement
and the tensor-word oracle in elementary apply), the breadth-first search
engine explore (the one place a search keys its nodes; it yields each node
with its key),
lockstep (do other elements follow one element's words?), the string
walker peel (which climbs by top), component enumeration, rooted graph
isomorphism, an axiom checker (check_axioms, which reads each weight,
(eps_i, phi_i) and image once per call, keyed by key(), so both ends of an
arrow share them: the statistics through ends(i), and both images of a
color through one arrows(i)), and graph export.

Tensor conventions (b1 tensor b2):
    <h_i, wt> = <h_i, wt b1> + <h_i, wt b2>
    eps_i = max(eps_i(b1), eps_i(b2) - <h_i, wt b1>)
    phi_i = max(phi_i(b2), phi_i(b1) + <h_i, wt b2>)
    e_i acts on the left factor iff phi_i(b1) >= eps_i(b2)  (ties go left)
    f_i acts on the left factor iff phi_i(b1) >  eps_i(b2)  (ties go right)

Whole strings follow, since f_i lowers phi_i of the factor it acts on by one
and e_i lowers eps_i by one: f_i^n acts a = clamp(phi_i(b1) - eps_i(b2), 0, n)
times on b1 and then n - a times on b2; e_i^n acts
b = clamp(eps_i(b2) - phi_i(b1), 0, n) times on b2 and then n - b times on
b1.  _string_split is the one place this rule is written; with |n| = 1 it is
the single-step rule above.  The generic tensor product and dual elements
built from these formulas are test references (tests/crystals.py).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional

from .weights import Weight, simple_root

# Extended integer: ordinary ints plus NEG_INF.  Python's float -inf mixes
# with ints correctly under max() and addition, which is all we need.
NEG_INF = float("-inf")

COLORS = (0, 1)


class CrystalElement:
    """Protocol base class; concrete elements define wt, eps, phi, power and
    key, pairing where they read <h_i, wt> without building the weight, and
    top where one pass can read eps_i and climb.  power(i, 0) returns the
    element unchanged."""

    def wt(self) -> Weight:
        raise NotImplementedError

    def eps(self, i: int):
        raise NotImplementedError

    def phi(self, i: int):
        raise NotImplementedError

    def ends(self, i: int) -> tuple:
        """(eps_i, phi_i); element types that read both in one pass
        override this."""
        return self.eps(i), self.phi(i)

    def power(self, i: int, n: int) -> Optional["CrystalElement"]:
        """f_i^n for n >= 0 and e_i^(-n) for n < 0; None when the string
        runs out."""
        raise NotImplementedError

    def top(self, i: int) -> tuple[int, Optional["CrystalElement"]]:
        """(eps_i(b), e_i^eps_i b): the length of b's i-string above b and
        the top of the string; (0, b) when e_i is undefined at b, and the
        image None where power(i, -eps_i) gives None."""
        k = self.eps(i)
        return k, self.power(i, -k)

    def e(self, i: int) -> Optional["CrystalElement"]:
        return self.power(i, -1)

    def f(self, i: int) -> Optional["CrystalElement"]:
        return self.power(i, 1)

    def arrows(self, i: int) -> tuple[Optional["CrystalElement"], Optional["CrystalElement"]]:
        """(e_i b, f_i b); element types that can share one read of their
        statistics between the two override this."""
        return self.power(i, -1), self.power(i, 1)

    def pairing(self, i: int) -> int:
        """<h_i, wt>; element types that know it without the full weight
        override this."""
        return self.wt().pairing(i)

    def key(self) -> Hashable:
        """Canonical hashable identity used for BFS dedup and graph nodes."""
        raise NotImplementedError


def _string_split(ph, ep, n: int) -> int:
    """How much of f_i^n (e_i^(-n) for n < 0) on b1 (x) b2 acts on b1, from
    ph = phi_i(b1) and ep = eps_i(b2).  Compare before subtracting: both may
    be -inf, and -inf - -inf is nan; past it a difference is +inf at worst."""
    if n > 0:  # f_i acts on b1 while phi(b1) > eps(b2)
        return 0 if ph <= ep else min(n, ph - ep)
    return n + (0 if ph >= ep else min(-n, ep - ph))  # e_i on b2 while phi(b1) < eps(b2)


class _Memo(dict):
    """A dict that fills a missing entry with read(key) on first lookup."""

    def __init__(self, read):
        super().__init__()
        self.read = read

    def __missing__(self, key):
        value = self[key] = self.read(key)
        return value


# The two arrows of color i at an element b, as check_axioms walks them:
# (n, the operator power(i, n), its inverse, the sign of alpha_i in the
# image's weight, the weight shift).
_ARROWS = tuple(((-1, "e", "f", "+", simple_root(i)), (1, "f", "e", "-", -simple_root(i)))
                for i in COLORS)


def check_axioms(elements: Iterable[CrystalElement]) -> list[str]:
    """Check the crystal axioms on a finite set; returns violation messages.

    Checked per element and color: pairing(i) = <h_i, wt>, phi = eps +
    <h_i, wt> (with both sides -infinity together), e/f weight shifts,
    eps/phi steps, and that e and f are mutually inverse where defined.

    Each fact is computed at most once per call and shared by both ends of
    every arrow: an element's weight, its (eps_i, phi_i) for each color
    (one ends(i) call), and each image power(i, +-1).  Where neither image
    of a color at a checked element is known yet, both come from one
    arrows(i) call; otherwise only the missing one is computed.  Elements
    are identified by key(), as in explore's dedup: two elements with one
    key are taken to have the same weight, statistics and images, and a
    key's facts are read off the first element met with it.  Each key is
    numbered once and the tables hold those numbers, images included, so
    they keep no references between elements; they live for the call
    only.
    """
    found: list[CrystalElement] = []  # number -> the first element met with its key
    numbers: dict = {}  # key -> number

    def number(b):
        j = numbers.setdefault(b.key(), len(found))
        if j == len(found):
            found.append(b)
        return j

    def numbered(c):
        return None if c is None else number(c)

    def image(entry):
        j, i, n = entry
        return numbered(found[j].power(i, n))

    weight = _Memo(lambda j: found[j].wt())
    stats = _Memo(lambda entry: found[entry[0]].ends(entry[1]))
    images = _Memo(image)  # (number, i, n) -> number of power(i, n), None where undefined
    problems: list[str] = []
    for b in elements:
        k = number(b)
        w = weight[k]
        for i in COLORS:
            if b.pairing(i) != w.pairing(i):
                problems.append(f"{b!r}: pairing({i}) != <h_{i}, wt>")
            ep, ph = stats[k, i]
            if (ep == NEG_INF) != (ph == NEG_INF):
                problems.append(f"{b!r}: eps/phi -inf mismatch for color {i}")
                continue
            if ep != NEG_INF and ph != ep + w.pairing(i):
                problems.append(f"{b!r}: phi_{i} != eps_{i} + <h_{i}, wt>")
            if (k, i, -1) not in images and (k, i, 1) not in images:
                images[k, i, -1], images[k, i, 1] = map(numbered, found[k].arrows(i))
            for n, op, back, sign, shift in _ARROWS[i]:
                y = images[k, i, n]
                if y is None:
                    continue
                if weight[y] != w + shift:
                    problems.append(f"{b!r}: wt({op}_{i} b) != wt(b) {sign} alpha_{i}")
                if stats[y, i] != (ep + n, ph - n):
                    problems.append(f"{b!r}: eps/phi step wrong under {op}_{i}")
                if images[y, i, -n] != k:
                    problems.append(f"{b!r}: {back}_{i} {op}_{i} b != b")
    return problems


# ---------------------------------------------------------------------------
# Breadth-first exploration and component graphs


def plain_moves(b: CrystalElement) -> Iterator[tuple[tuple[str, int], Optional[CrystalElement]]]:
    """The plain operators at b as ((kind, color), image) pairs, in the
    order e_0, f_0, e_1, f_1; the image is None where undefined.  Both
    arrows of a color come from one arrows(i) call."""
    for i in COLORS:
        e, f = b.arrows(i)
        yield ("e", i), e
        yield ("f", i), f


def explore(roots: Iterable[CrystalElement], moves, depth: int):
    """Breadth-first search from roots along moves, to the given depth.

    moves(b) yields (move, image) pairs, the image None where the move is
    undefined.  Yields (parent_key, move, child, child_key, new) tuples in
    discovery order: first each root as (None, None, root, root_key, new),
    then, level by level, every move of every node at distance < depth from
    the roots, in the order moves yields them.  Each root and each defined
    child is keyed once, here; child and child_key are None where the move
    is undefined.  new is True exactly when child is defined and its key
    was not seen before; only new nodes are expanded, in the order they
    were found.  Nothing is computed beyond what the consumer takes.
    """
    seen = set()
    frontier = []
    for root in roots:
        k = root.key()
        new = k not in seen
        if new:
            seen.add(k)
            frontier.append((k, root))
        yield None, None, root, k, new
    for _ in range(depth):
        nxt = []
        for bkey, b in frontier:
            for move, c in moves(b):
                k = None if c is None else c.key()
                new = k is not None and k not in seen
                if new:
                    seen.add(k)
                    nxt.append((k, c))
                yield bkey, move, c, k, new
        frontier = nxt


def lockstep(root: CrystalElement, moves, depth: int, starts: Iterable[CrystalElement]):
    """Follow root's words from each start, move for move.

    Explores root once along moves to the given depth, keeping the node
    keys explore yields, then replays each expanded node's moves on its
    image, pairing the results by position.
    Returns (nodes, walks): nodes maps each key found from root to its node;
    walks lazily yields, per start, (keys, elements, problems): node key ->
    key of the element the same word reaches, that key -> the element, and
    (move, problem) records, the problem "defined" (on one side only),
    "not well defined" (a mapped node reached at a second element) or
    "collision" (two nodes reach one element).
    """
    search = explore([root], moves, depth)
    _, _, _, root_key, _ = next(search)
    nodes = {root_key: root}
    steps: dict = {}  # expanded node key -> [(move, child key or None), ...]
    for pkey, move, c, ckey, new in search:
        if new:
            nodes[ckey] = c
        steps.setdefault(pkey, []).append((move, ckey))

    def walk(start):
        keys = {root_key: start.key()}
        elements = {keys[root_key]: start}
        problems = []
        for nkey, out in steps.items():
            if nkey not in keys:
                continue
            for (move, ckey), (_, y) in zip(out, moves(elements[keys[nkey]])):
                if (y is None) != (ckey is None):
                    problems.append((move, "defined"))
                if y is None or ckey is None:
                    continue
                ykey = y.key()
                if ckey in keys:
                    if keys[ckey] != ykey:
                        problems.append((move, "not well defined"))
                    continue
                if ykey in elements:
                    problems.append((move, "collision"))
                keys[ckey] = ykey
                elements[ykey] = y
        return keys, elements, problems

    return nodes, map(walk, starts)


def peel(b: CrystalElement, first_color: int) -> list[tuple[int, int]]:
    """The string of b along the colors first_color, 1 - first_color, ...:
    (color, a_k) pairs, a_k being eps_color of b after the full raises along
    the earlier pairs, until both colors are exhausted.  Lowering the highest
    weight element along the reversed pairs (halfpath.apply_word) gives b.
    Each pair is one top(color), which reads a_k and makes the full raise
    together; eps of the other color is read only when the first string is
    empty, since after a full raise the previous color is exhausted."""
    word: list[tuple[int, int]] = []
    color = first_color
    while True:
        k, b = b.top(color)
        if not k and (word or not b.eps(1 - color)):
            return word
        word.append((color, k))
        color = 1 - color


@dataclass
class ComponentGraph:
    """Colored digraph of a truncated crystal component.

    Nodes are keyed by a deterministic id; edges (src, dst, color) point
    along the lowering operators f_i.  depth maps node id -> BFS distance
    from the root.
    """

    root: str
    nodes: dict[str, CrystalElement] = field(default_factory=dict)
    edges: list[tuple[str, str, int]] = field(default_factory=list)
    depth: dict[str, int] = field(default_factory=dict)

    def to_dot(self) -> str:
        lines = ["digraph crystal {", "  rankdir=TB;"]
        for nid, b in sorted(self.nodes.items()):
            w = b.wt()
            lines.append(
                f'  "{nid}" [label="({w.a0},{w.a1},{w.d})"];'
            )
        for src, dst, i in sorted(self.edges):
            lines.append(f'  "{src}" -> "{dst}" [label="f{i}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """The text json.dumps(payload, indent=2) gives for the graph's
        root, nodes (id, weight, depth) and edges, each record written from
        a fixed template: indent= would send json to its pure-Python
        encoder."""
        dumps = json.dumps
        nodes = [
            f'    {{\n      "id": {dumps(nid)},\n      "wt": {{\n'
            f'        "L0": {w.a0},\n        "L1": {w.a1},\n        "delta": {w.d}\n'
            f'      }},\n      "depth": {self.depth[nid]}\n    }}'
            for nid, w in sorted((nid, b.wt()) for nid, b in self.nodes.items())]
        edges = [
            f'    {{\n      "src": {dumps(s)},\n      "dst": {dumps(d)},\n'
            f'      "color": {i}\n    }}'
            for s, d, i in sorted(self.edges)]
        return (f'{{\n  "root": {dumps(self.root)},\n  "nodes": {_json_list(nodes)},\n'
                f'  "edges": {_json_list(edges)}\n}}')


def _json_list(records: list[str]) -> str:
    """A list of indent-2 records two levels deep, as json.dumps writes it."""
    return "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"


def node_id(key: Hashable) -> str:
    raw = repr(key).encode()
    return hashlib.sha1(raw).hexdigest()[:16]


def bfs_component(root: CrystalElement, max_depth: int) -> ComponentGraph:
    """Enumerate the component of root under the plain operators to max_depth.

    Edges are recorded for lowering arrows only: a raising move e_i from b
    to c is stored as the arrow f_i from c to b, which determines the
    raising edges too since crystal graphs have at most one arrow per color
    in each direction at a node.
    """
    search = explore([root], plain_moves, max_depth)
    _, _, _, root_key, _ = next(search)
    rid = node_id(root_key)
    graph = ComponentGraph(root=rid, nodes={rid: root}, depth={rid: 0})
    ids = {root_key: rid}  # element key -> node id
    for pkey, move, c, ckey, new in search:
        if c is None:
            continue
        src = ids[pkey]
        if new:
            dst = ids[ckey] = node_id(ckey)
            graph.nodes[dst] = c
            graph.depth[dst] = graph.depth[src] + 1
        else:
            dst = ids[ckey]
        kind, i = move
        graph.edges.append((src, dst, i) if kind == "f" else (dst, src, i))
    graph.edges = sorted(set(graph.edges))
    return graph


def graphs_isomorphic(g1: ComponentGraph, g2: ComponentGraph) -> bool:
    """Rooted colored-graph isomorphism preserving weights is decidable by
    parallel traversal: each node has at most one in/out arrow per color."""

    def arrows(g: ComponentGraph):
        out: dict[tuple[str, int], str] = {}
        inc: dict[tuple[str, int], str] = {}
        for s, d, i in g.edges:
            if (s, i) in out and out[(s, i)] != d:
                return None  # corrupted: duplicate arrow
            if (d, i) in inc and inc[(d, i)] != s:
                return None
            out[(s, i)] = d
            inc[(d, i)] = s
        return out, inc

    a1, a2 = arrows(g1), arrows(g2)
    if a1 is None or a2 is None:
        return False
    out1, in1 = a1
    out2, in2 = a2
    pair = {g1.root: g2.root}
    back = {g2.root: g1.root}
    queue = [(g1.root, g2.root)]
    while queue:
        n1, n2 = queue.pop()
        if g1.nodes[n1].wt() != g2.nodes[n2].wt():
            return False
        for table1, table2 in ((out1, out2), (in1, in2)):
            for i in COLORS:
                c1 = table1.get((n1, i))
                c2 = table2.get((n2, i))
                if (c1 is None) != (c2 is None):
                    return False
                if c1 is None:
                    continue
                if c1 in pair or c2 in back:
                    if pair.get(c1) != c2 or back.get(c2) != c1:
                        return False
                    continue
                pair[c1] = c2
                back[c2] = c1
                queue.append((c1, c2))
    return len(pair) == len(g1.nodes) == len(g2.nodes)
