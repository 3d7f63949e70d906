"""Desk-scale verifier for the Peter-Weyl decomposition of the level-zero
modified-algebra crystal.

The target statement: as a bi-crystal (plain operators acting on the left
factor, starred operators on the right),

    B ~ direct sum over Weyl orbits of lam of  B^max(lam) (x) Bdual(lam),

where Bdual(lam) is the star image of the dual extremal-weight crystal,
realized inside B as the extremal vectors of weight lam with |m| walls and
inter-wall gaps at most 1.  The pairing sends (b, W*(u_lam)) to W*(b) for a
starred word W; everything here verifies truncations of that statement by
exhaustive breadth-first enumeration:

  C1: the component of any extremal vector of weight lam is isomorphic to
      the component of u_lam;
  C2: that component contains a unique vector of weight lam;
  C3: its extremal vectors are exactly the Weyl orbit of u_lam.

Star is an involution and X*(e) = (X(e*))*, so a starred word W* acting
on y is the plain word W acting on y*, followed by one star: W*(y) =
(W(y*))*.  The starred side therefore runs in star space: the dual family
is the plain BFS from u_lam*, each B^max element b* follows its words move
for move (core.lockstep, which checks C1 too), and the pairs are keyed by
star images (star is a bijection, so keys collide exactly when the
elements do).  The report holds only star images: each factor element is
starred once (a B^max element into star space, a dual element back for its
wall check), and no element of the slice is starred at all.  It decomposes
each element as the lockstep walk yields it, so it holds one B^max
element's walk at a time and, for the injectivity check, a map from
element key to B^max key; slice_keys() reads the same walks for their
keys alone.

The elements sharing a dual partner r are reached by one word W: the
word by which the dual family's BFS first reached r* (core.lockstep
keeps it, as strings), so r = W*(u_lam), and b's walk reaches the star
image y = W(b*) of b's element W*(b) by the same moves.  The report
therefore searches once per dual element, on its first element, and
certifies each later one as a search would, by W run from b*, the start
of b's walk: b* is extremal by its walls and its factor's orbit is lam's
(both read once per walk), and W's strings run from b* give y (the
forward check, which compares the string kernel with the walk's single
steps; a string that runs out fails it).  Each walk runs every W by one
string: it keeps the element it certified for each word, b* for the
empty one, and checks the element of W = W' s against the string s run
from the element of W', its string parent.  The BFS reached r* through
the node of W' (any string-prefix of a BFS word is the BFS word of an
earlier node), and a walk yields its elements in the order the BFS found
their nodes, so that element came first.  By induction on the number of
strings, an element certified so equals W(b*): the one of W' equals
W'(b*), and s run from it gives W(b*).  So one string is the same
forward check as the whole word run from b*.  A failed check, a string
parent that was not certified, or a walk whose start fails, falls back
to the search, so every failed or inconclusive decomposition comes from
a search, and so does every element whose word extends a failed one.

decompose() inverts the pairing on a single element: raise/lower the star
image until an extremal vector x appears, read off its walls
(levelpath.is_extremal_by_walls: they all carry one sign, which implies
the bounded S-walk's verdict at every length); the B^max factor is x*,
and the inverted search word is the starred word from x* back to the
element -- replayed as plain moves on x, which gives the element's star
image, and checked to equal the star image it searched from.  An extremal
vector sits at an end of every i-string, and so does every element of its
Weyl orbit, so the search moves by whole strings: E_i = e_i^eps_i to the
top of the i-string and F_i = f_i^phi_i to its bottom, undefined when its
exponent is 0 (levelpath.string_moves, which reads both exponents and
both strings of a color from one read of the element's statistics).  The
word is a list of (kind, i, n) strings, kind^n of color i, and the search
depth counts strings.

verify_component() checks C1-C3 on one lockstep walk of u_lam's
component.  pw_verify() is pw-verify's whole verdict: it runs
verify_component() and the slice report and returns one SliceReport
holding C1-C3 and the slice's counts, whose failed and ok decide the exit
code.  Only C3 keeps the bounded S-walk, the definition the theorem is
checked against: it walks the Weyl orbit of u_lam once, by words of
word_bound letters (pw-verify's --word-bound), and checks only the
component's nodes outside it, at EXTREMAL_LEN.  C1's starts sit within
C1_SPAN and, like decompose() and the dual family's check, read
extremality off the walls: walls of one sign pass the S-walk at every
length (levelpath.is_extremal_by_walls, L1 and L2), so they need no
bound.  The report's decompose() searches by DECOMPOSE_DEPTH strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import explore, lockstep, plain_moves
from .extremal import (bminus_star_count, enum_bmax, enum_bminus_star, is_extremal,
                       weyl_orbit)
from .levelpath import ModElement, is_extremal_by_walls, string_moves, u_lambda
from .star import star_mod
from .weights import Weight, orbit_canonical

EXTREMAL_LEN = 4
C1_SPAN = 2
DECOMPOSE_DEPTH = 10


@dataclass
class Decomposition:
    """e = W*(bmax_factor) for the starred word W = word.

    extremal is the extremal vector x the search found; the B^max factor is
    its star image, on which the word acts as starred moves, and the word
    runs on x itself as plain moves: W*(bmax_factor) = (W(x))*.
    """

    # starred strings (kind, i, n), kind^n of color i, applied left to right
    # to bmax_factor
    word: list[tuple[str, int, int]]
    extremal: ModElement

    @property
    def bmax_factor(self) -> ModElement:
        return star_mod(self.extremal)

    @property
    def lam_canonical(self) -> Weight:
        """The dominant representative of the factor's Weyl orbit."""
        return orbit_canonical(-self.extremal.wt())

    def star_image(self) -> ModElement:
        """The star image of the element the word gives: its plain strings
        run on extremal, W(x) = (W*(x*))*."""
        cur = self.extremal
        for kind, i, n in self.word:
            cur = cur.power(i, n if kind == "f" else -n)
            if cur is None:
                raise RuntimeError("decomposition word failed to replay")
        return cur

    def replay(self) -> ModElement:
        """The element the word gives from bmax_factor: star_image(), starred
        once."""
        return star_mod(self.star_image())


def decompose(e: Optional[ModElement], max_depth: int = 8, *,
              e_star: Optional[ModElement] = None) -> Optional[Decomposition]:
    """Factor e through the decomposition; None if the bounded search fails.

    Searches the plain component of e* breadth-first, by whole strings
    (string_moves), for an extremal vector x; then b = x* lies in
    B^max(-wt(x)), and the inverted search word W, a list of (kind, i, n)
    strings, takes x back to e* by plain strings, so the starred word W*
    takes b to e.  The result keeps only W and x; b and its orbit are
    computed when asked for.  max_depth bounds the number of strings, not
    of single steps.  Raises RuntimeError if that word does not replay from
    b to e, checked in star space: W(x) against e* (star_image()).

    A node is extremal when its walls all carry one sign
    (is_extremal_by_walls), so the search computes no S_i step.  e_star is
    star_mod(e), for callers that hold it; e may then be None, as it is not
    read.
    """
    root = star_mod(e) if e_star is None else e_star
    links: dict = {}  # element key -> (parent key, move) in the search tree
    for pkey, move, x, k, new in explore([root], string_moves, max_depth):
        if not new:
            continue
        if pkey is not None:
            links[k] = (pkey, move)
        if not is_extremal_by_walls(x):
            continue
        inverse = []
        while k in links:
            k, (kind, i, n) = links[k]
            inverse.append(("f" if kind == "e" else "e", i, n))
        result = Decomposition(inverse, x)
        if result.star_image() != root:
            raise RuntimeError("decomposition word does not replay to the element")
        return result
    return None


# -- component-level checks ---------------------------------------------------


def verify_component(lam: Weight, depth: int = 5, word_bound: int = 8) -> tuple[bool, bool, bool]:
    """(C1, C2, C3) on the component of u_lam, walked once to depth.

    C1: there are as many extremal starts of weight lam within C1_SPAN as
    bminus_star_count predicts, and each follows u_lam's words move for
    move (one lockstep).  C2 and C3 read that walk's nodes: u_lam is the
    only one of weight lam, and every extremal one lies in u_lam's Weyl
    orbit, so only the nodes outside the orbit are checked.  word_bound
    sets the length of the orbit's alternating words alone, and C3 checks
    at EXTREMAL_LEN; C1's starts are extremal by their walls (L1, L2).
    """
    root = u_lambda(lam)
    starts = enum_bminus_star(lam, span=C1_SPAN)
    nodes, _, walks = lockstep(root, plain_moves, depth, starts)
    c1 = len(starts) == bminus_star_count(lam, C1_SPAN) and all(
        b.wt() == lam and not problems for b, (_, _, problems) in zip(starts, walks))
    c2 = [b for b in nodes.values() if b.wt() == lam] == [root]
    orbit = weyl_orbit(root, word_bound, EXTREMAL_LEN)
    c3 = orbit is not None and not any(
        k not in orbit and is_extremal(b, EXTREMAL_LEN)
        for k, b in nodes.items())
    return c1, c2, c3


# -- full truncated slice report ----------------------------------------------


@dataclass
class SliceReport:
    lam: Weight
    # C1-C3 of verify_component; None when this report did not check them
    c1: Optional[bool] = None
    c2: Optional[bool] = None
    c3: Optional[bool] = None
    bmax_size: int = 0
    dual_size: int = 0
    pair_count: int = 0
    product_ok: bool = False
    dual_characterization_ok: bool = False
    decompose_inconclusive: int = 0
    decompose_mismatched: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """A definite check failed, C1-C3 among them; an inconclusive
        decompose() is not one, and an unchecked C1-C3 passes."""
        return (False in (self.c1, self.c2, self.c3)
                or not (self.product_ok and self.dual_characterization_ok
                        and self.decompose_mismatched == 0
                        and not self.violations))

    @property
    def ok(self) -> bool:
        return not self.failed and self.decompose_inconclusive == 0


def _dual_family_ok(r: ModElement, lam: Weight) -> bool:
    """The dual family's characterization: weight lam, extremal (read off
    the walls), |m| walls and inter-wall gaps of at most 1."""
    if r.wt() != lam:
        return False
    if not is_extremal_by_walls(r):
        return False
    walls = r.wall_positions()
    if len(walls) != abs(lam.a0):
        return False
    return all(walls[j + 1] - walls[j] <= 1 for j in range(len(walls) - 1))


def _star_pairs(lam: Weight, bmax: dict, depth: int):
    """The dual family and the pairs of the lam-slice, in star space.

    The dual family is the starred BFS from u_lam, run as the plain BFS from
    u_lam*; for every B^max element b, b* follows its words in lockstep
    with u_lam*.  Returns (dual, pairs, violations): dual maps the key of
    r* to r* for each dual element r; pairs lazily yields (e* key, (b key,
    r* key, e*, b*, W)) for each element e = W*(b) whose partner is r =
    W*(u_lam), each element once, one b's walk at a time: b in key order,
    and r in the dual family's discovery order; b* is the walk's start,
    and W, as strings, the word by which the BFS first reached r*, which
    pw_report's certificate runs from b*, one string at a time.
    violations fills as pairs is read: the words whose defined-ness
    differs between b and u_lam, the words that reach one dual element at
    two elements, and the elements reached from two different b.  Only
    one walk and the map from element key to b key are held at a time.
    """
    root = star_mod(u_lambda(lam))
    root_key = root.key()
    order = sorted(bmax.items())
    dual, words, walks = lockstep(root, plain_moves, depth,
                                  (star_mod(b) for _, b in order))
    violations: list[str] = []

    def pairs():
        owner: dict = {}  # e* key -> b key
        for (bkey, _), (keys, elements, problems) in zip(order, walks):
            start = elements[keys[root_key]]
            for (kind, i), problem in problems:
                violations.append(f"starred {kind}{i} defined-ness differs at b={bkey[:2]}"
                                  if problem == "defined" else f"pair map {problem}")
            for rkey, ykey in keys.items():
                if ykey not in owner:
                    owner[ykey] = bkey
                    yield ykey, (bkey, rkey, elements[ykey], start, words[rkey])
                elif owner[ykey] != bkey:
                    violations.append("pair map collision")

    return dual, pairs(), violations


def pw_report(lam: Weight, c_bound: int = 1, depth: int = 3) -> SliceReport:
    """Verify the truncated lam-slice of the decomposition.

    Enumerates the B^max truncation by plain BFS from the seeds, and the
    dual family by starred BFS from u_lam, both to depth; every B^max
    element b follows the dual family's words in lockstep, in star space
    (_star_pairs).  Each element's star image is decomposed as the walk
    yields it, so no element is starred and only one b's walk is held at a
    time.  decompose() searches the first element of each dual partner and
    every element whose certificate fails; each later element is certified
    by its partner's word W run from the walk's start b*, whose walls and
    orbit are read once per walk: by one string, the last of W, run from
    the element this walk certified for W's prefix (b* itself for the
    empty word), which by induction is the same check (the module
    docstring gives why).  An element whose string parent was not
    certified is searched.  Checks,
    on the truncation: the starred word is defined on b exactly when it is
    defined on u_lam; the resulting element depends only on (b, image from
    u_lam); the pair map is injective, so the slice count is the product
    of the factor counts; every dual-family element matches its wall
    characterization; and decompose() recovers a factorization replaying
    to the element, for every enumerated element, whose orbit has lam's
    representative (orbit_canonical, in closed form, so the cost does not
    grow with lam's delta label).  The wall characterization, the decompose() searches and
    the certificates read extremality off the walls (is_extremal_by_walls),
    so the report computes no S_i step.
    """
    rep = SliceReport(lam=lam)
    canon = orbit_canonical(lam)
    bmax = enum_bmax(lam, c_bound, depth)
    rep.bmax_size = len(bmax)

    dual, pairs, rep.violations = _star_pairs(lam, bmax, depth)
    rep.dual_size = len(dual)
    rep.dual_characterization_ok = all(_dual_family_ok(star_mod(r), lam)
                                       for r in dual.values())
    searched: set = set()  # dual keys whose first element was searched
    walk = None
    reached: dict = {}  # word tuple -> the element certified for it in this walk
    for _, (bkey, rkey, y, start, word) in pairs:
        rep.pair_count += 1
        if rkey in searched:
            if bkey != walk:
                walk = bkey
                reached = ({(): start} if is_extremal_by_walls(start) and
                           Decomposition([], start).lam_canonical == canon else {})
            w = tuple(word)
            x = reached.get(w[:-1])  # the string parent; b* itself for w = ()
            if x is not None and w:
                kind, i, n = w[-1]
                x = x.power(i, n if kind == "f" else -n)  # None: the string runs out
            if x is not None and x == y:
                reached[w] = y
                continue
        searched.add(rkey)
        try:
            result = decompose(None, DECOMPOSE_DEPTH, e_star=y)
        except RuntimeError:
            rep.decompose_mismatched += 1
            continue
        if result is None:
            rep.decompose_inconclusive += 1
            continue
        if result.lam_canonical != canon:
            rep.decompose_mismatched += 1
    rep.product_ok = not rep.violations and rep.pair_count == rep.bmax_size * rep.dual_size
    return rep


def pw_verify(lam: Weight, depth: int = 5, word_bound: int = 8) -> SliceReport:
    """pw-verify's checks of lam in one record: C1-C3 on u_lam's component
    to depth (verify_component, with word_bound) and the slice report at
    c_bound 1 and depth at most 3 (pw_report).  The record fails when any
    check fails, and is ok when none does and every element decomposed,
    by its partner's word run from its walk's start or, once per dual
    element at least, by a decompose() search."""
    c1, c2, c3 = verify_component(lam, depth, word_bound)
    rep = pw_report(lam, 1, min(depth, 3))
    rep.c1, rep.c2, rep.c3 = c1, c2, c3
    return rep


def slice_keys(lam: Weight, c_bound: int = 1, depth: int = 3) -> frozenset:
    """The keys of the truncated lam-slice's star images (_star_pairs, with
    no decompose() and no dual check).  Star is a bijection, so two slices
    share a key exactly when they share an element."""
    _, pairs, _ = _star_pairs(lam, enum_bmax(lam, c_bound, depth), depth)
    return frozenset(k for k, _ in pairs)


def slice_invariant_under_reflection(lam: Weight, i: int, c_bound: int = 1,
                                     depth_small: int = 2, depth_big: int = 4) -> bool:
    """The truncated slice of lam embeds in a deeper truncation of the slice
    of s_i(lam), and vice versa: evidence that the slice depends only on the
    Weyl orbit."""
    lam2 = lam.reflect(i)
    return (slice_keys(lam, c_bound, depth_small)
            <= slice_keys(lam2, c_bound + 1, depth_big)
            and slice_keys(lam2, c_bound, depth_small)
            <= slice_keys(lam, c_bound + 1, depth_big))
