"""Extremal vectors, Weyl orbit operators, and the distinguished families.

S_i applies f_i^n when n = <h_i, wt> >= 0 and e_i^(-n) otherwise, the one
string power(i, <h_i, wt>) (weyl_op); running out of operator before the
full power is a hard error, since on the elements we apply it to the power
is guaranteed by the axioms.

An element is extremal when every image under an alternating S-word is
i-extremal for both colors: raising must be absent when <h_i, wt> >= 0 and
lowering absent when <h_i, wt> <= 0.  is_extremal checks this for all
alternating words up to a cutoff length.  It is the definition that
levelpath.is_extremal_by_walls, walls of one sign, is tested against: by
its L1 and L2 such walls pass the walk at every length, so the slice report
and C1's starts (enum_bminus_star) read extremality off the walls, and C3,
extremal_cert, weyl_orbit and the CLI keep this walk.

The check reads i-extremality off the string statistics, ends(i), instead of
building e_i and f_i images.  On a ModElement b1 (x) t_lam (x) b2, eps_i >=
eps_i(b1) >= 0 and phi_i >= phi_i(b2) >= 0, and e_i is undefined exactly
when eps_i = 0, f_i exactly when phi_i = 0: by the tensor rule e_i acts on
b1 (defined iff eps_i(b1) > 0, and then eps_i = eps_i(b1)) or on the right
path b2, where it is always defined and eps_i > eps_i(b1); f_i likewise.
With n = <h_i, wt> and phi_i = eps_i + n, the element is i-extremal exactly
when eps_i = max(0, -n).

Each check walks its S-words afresh (_walk): S_i reflects the i-string, so
it is an involution, and the alternating images of both phases lie on one
line through the element; a walk stops at the first image that is
undefined or not locally extremal, which is where the word's witness ends.

B^max(lam) is the set of elements whose star image is extremal.  It is a
disjoint union of full plain-operator components, one per tuple
c = (c_1, ..., c_{n-1}) of nonnegative integers (n = |classical part of
lam|), each generated by a seed path: reading left to right, a length-2*c_j
domain of letters -+j for each j < n followed by the ground tail, with every
domain starting at an odd position and the tail starting at position 1.
The seed is its own closed-form star image: its walls W_1 <= ... <= W_n = 1
have W_{j+1} - W_j = 2*c_j, and its letters are levelpath._star_letters
with the sign of m.  So it is fixed by star at the level of entries; its
delta label may shift, since star negates the delta coordinate of the
weight.

uniform_wall_path builds the path with given same-sign walls, zero left of
the first one; its letters solve the wall recurrence in one pass.

The star image of the dual extremal-weight crystal B(-lam) consists of the
extremal elements of weight exactly lam; they are uniform-wall paths with
|m| walls whose inter-wall gaps are 0 or 1, spread over all ambient
families by shifting the wall block.  Each gap pattern and base position
gives one of them, so a truncation to base positions in [-span, span]
holds (2*span + 1) * 2^(|m| - 1) elements (bminus_star_count), the
generator alone at m = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from typing import Iterable, Optional

from .core import COLORS, explore, plain_moves
from .levelpath import (LevelPath, ModElement, _alt, _star_letters, is_extremal_by_walls,
                        lp_split, u_lambda)
from .star import star_mod
from .weights import Weight


def weyl_op(e: ModElement, i: int) -> ModElement:
    """S_i: the full string of f_i or e_i prescribed by <h_i, wt>."""
    n = e.pairing(i)
    out = e.power(i, n)
    if out is None:
        raise RuntimeError(f"S_{i} ran out of operator (power {n})")
    return out


def _locally_extremal(e: ModElement) -> bool:
    """No e_i where <h_i, wt> >= 0 and no f_i where it is <= 0, for both
    colors: eps_i = max(0, -<h_i, wt>), by the statistics alone, with
    <h_i, wt> = phi_i - eps_i."""
    return all(eps == max(0, eps - phi) for eps, phi in map(e.ends, COLORS))


def _walk(e: ModElement, start: int, length: int) -> list[ModElement]:
    """The images of e along the alternating S-word of up to length letters
    that starts with color start, stopping before the first image that is
    undefined (S ran out of operator) or not locally extremal."""
    images = []
    color = start
    for _ in range(length):
        try:
            e = weyl_op(e, color)
        except RuntimeError:
            break
        if not _locally_extremal(e):
            break
        images.append(e)
        color = 1 - color
    return images


def is_extremal(e: ModElement, max_len: int = 6) -> bool:
    """Bounded extremality check via alternating S-words of both phases."""
    return extremal_cert(e, max_len).extremal


@dataclass
class ExtremalCert:
    """Verdict of the bounded extremality check.

    When not extremal, witness is the alternating color word whose S-image
    fails to be i-extremal (empty word: the element itself fails)."""

    max_len: int
    extremal: bool
    witness: Optional[list[int]] = None


def extremal_cert(e: ModElement, max_len: int = 6) -> ExtremalCert:
    """The bounded check: the witness is the first alternating word, phase
    0 then 1, whose walk (_walk) ends within max_len letters."""
    if not _locally_extremal(e):
        return ExtremalCert(max_len, False, [])
    for start in COLORS:
        reached = len(_walk(e, start, max_len))
        if reached < max_len:
            return ExtremalCert(max_len, False, [(start + j) % 2 for j in range(reached + 1)])
    return ExtremalCert(max_len, True)


def weyl_orbit(e: ModElement, length: int, max_len: int = 6) -> Optional[set]:
    """The keys of e and of its images under the alternating S-words of
    both phases up to length letters; None when one of those images fails
    the bounded check at max_len, or when e is not locally extremal.

    S_i is an involution, so the images of both phases lie on one line
    through e, and the bounded checks of the first length images on either
    side reach exactly the images within length + max_len of e: each phase
    is walked once that far.
    """
    if not _locally_extremal(e):
        return None
    keys = {e.key()}
    reach = length + max_len if length else 0
    for start in COLORS:
        images = _walk(e, start, reach)
        if len(images) < reach:
            return None
        keys.update(x.key() for x in images[:length])
    return keys


# -- uniform-wall path construction -----------------------------------------


def uniform_wall_path(wall_positions: Iterable[int], sign: int,
                      wt_delta: int = 0) -> LevelPath:
    """Build the path with the given expanded wall positions, all walls of
    the given sign, zero left of the first wall.  The wall recurrence
    i_q = sign * mult(q) - i_{q-1} solves to
    i_q = sign * (-1)^q * sum_{W <= q} (-1)^W, so from the last wall on the
    path follows the ground pattern of m = sign * sum_W (-1)^W; its delta
    label is chosen to make the path weight's delta coordinate equal
    wt_delta.
    """
    walls = sorted(wall_positions)
    entries = [(q, sign * _alt(q) * sum(_alt(w) for w in walls if w <= q))
               for q in range(min([0] + walls), max([0] + walls))]
    probe = LevelPath(sign * sum(_alt(w) for w in walls), 0, entries)
    return LevelPath(probe.m, wt_delta - probe.wt().d, probe.entries)


# -- B^max(lam) ---------------------------------------------------------------


def bmax_seed(lam: Weight, cvec: tuple[int, ...]) -> LevelPath:
    """The star-fixed seed of B^max(lam) indexed by c = (c_1, ..., c_{n-1}),
    n = |m|: its own closed-form star image (levelpath._star_letters), with
    walls W_1 <= ... <= W_n = 1 and domain j of length W_{j+1} - W_j = 2 * c_j."""
    if lam.level != 0:
        raise ValueError("lam must have level zero")
    n = abs(lam.a0)
    if len(cvec) != max(n - 1, 0) or any(c < 0 for c in cvec):
        raise ValueError(f"need {max(n - 1, 0)} nonnegative block sizes, got {cvec}")
    walls = [1 - 2 * sum(cvec[j:]) for j in range(n)]
    sign = 1 if lam.a0 > 0 else -1
    return LevelPath(lam.a0, lam.d, _star_letters(walls, sign, min([0] + walls), 1))


def bmax_contains(lam: Weight, e: ModElement, max_len: int = 5) -> bool:
    """Whether e lies in B^max(lam): marker weight lam and star image
    extremal, by the bounded S-walk (is_extremal).  True means that no
    alternating S-word of at most max_len letters is a witness against it,
    so an e whose star image has walls of mixed signs and is not extremal
    can pass at a short bound: one such e at lam = -16(L0 - L1) - 16 delta
    is contained at the CLI's default bound 4 and not at 7."""
    return e.lam == lam and is_extremal(star_mod(e), max_len)


def bmax_seeds(lam: Weight, c_bound: int) -> list[LevelPath]:
    """The seeds of B^max(lam) whose block sizes are all at most c_bound."""
    shapes = product(range(c_bound + 1), repeat=max(abs(lam.a0) - 1, 0))
    return [bmax_seed(lam, cvec) for cvec in shapes]


def enum_bmax(lam: Weight, c_bound: int, depth: int = 4) -> dict:
    """Enumerate a truncation of B^max(lam): it is a union of full plain
    components, one per block-size tuple, generated by the seeds.  Returns
    the BFS truncation (to the given depth) of the components with block
    sizes up to c_bound, keyed by element key."""
    roots = [lp_split(seed) for seed in bmax_seeds(lam, c_bound)]
    return {k: c for _, _, c, k, new in explore(roots, plain_moves, depth) if new}


# -- star image of the dual extremal-weight crystal ---------------------------


def bminus_star_count(lam: Weight, span: int) -> int:
    """The number of elements enum_bminus_star(lam, span) finds: one per
    gap pattern in {0, 1}^(|m| - 1) and base wall position in
    [-span, span], and the generator alone at m = 0."""
    n = abs(lam.a0)
    return 1 if n == 0 else (2 * span + 1) * 2 ** (n - 1)


def enum_bminus_star(lam: Weight, span: int = 4) -> list[ModElement]:
    """Truncated star image of the dual extremal-weight crystal of -lam.

    Its elements are exactly the extremal vectors of weight lam with |m|
    same-sign walls and inter-wall gaps 0 or 1, across all ambient path
    families; the truncation ranges the base wall position over
    [-span, span] (the generator u_lam appears at base position 0 with all
    walls stacked).  An element is kept when its walls carry one sign: by
    L1 and L2 (levelpath.is_extremal_by_walls) it then passes the S-walk
    at every length.  A wrong uniform_wall_path drops elements, and C1's
    count against bminus_star_count fails.
    """
    if lam.level != 0:
        raise ValueError("lam must have level zero")
    m = lam.a0
    if m == 0:
        return [u_lambda(lam)]
    n = abs(m)
    sgn = 1 if m > 0 else -1
    out: dict = {}  # element key -> element, in the order found
    for gaps in product((0, 1), repeat=n - 1):
        for t in range(-span, span + 1):
            e = lp_split(uniform_wall_path(accumulate(gaps, initial=t), sgn, lam.d))
            if e.wt() == lam and is_extremal_by_walls(e):
                out.setdefault(e.key(), e)
    return list(out.values())
