"""Two-sided level-zero paths and the modified-algebra crystal elements.

A level path in the family P_{m,l} is a two-sided integer sequence (i_k),
k in Z, equal to 0 far to the left and to the ground pattern (-1)^k * m far
to the right.  The ground path g has g_k = 0 for k < 0 and g_k = (-1)^k * m
for k >= 0; it is the extremal generator of its component and has weight
m*(L0-L1) + l*delta, where l is an overall delta offset carried by the
family label.

The crystal structure on P_{m,l} is computed by splitting a path at position
zero into a left half-path b1 (positions < 0), a central weight marker, and
a right half-path b2 (positions >= 0 with the ground pattern subtracted),
then applying the tensor rules to b1 (x) t (x) b2.  The marker weight lam is
the same for every path in P_{m,l}; operators never change it.  ModElement
is that three-factor form and serves as the canonical element type for the
crystal of the modified algebra: the union over lam of the components
containing u_lam = u (x) t_lam (x) u^dual.

ModElement applies the tensor rules to its three factors directly.  The
marker has eps = phi = -infinity, so b1 (x) t has eps(b1) and
phi(b1) + <h_i, lam> as its statistics and takes every string on b1; with
p = <h_i, .>:

    eps_i = max(eps_i(b1), eps_i(b2) - p(b1) - p(lam))
    phi_i = max(phi_i(b2), phi_i(b1) + p(lam) + p(b2))

and a string splits between b1 and b2 by comparing phi_i(b1) + p(lam) with
eps_i(b2), by core's rule for strings (_string_split).  So four numbers of
color i decide everything: eps_i(b1), phi_i(b1) + p(lam), eps_i(b2) and
phi_i(b2).  ModElement._stats(i) reads them from one scan of each factor's
left view, and _ends gives eps_i and phi_i from them (phi_i - eps_i is
p(wt)).  ends (the pair) and power each read them once; arrows (both plain
arrows) and string_moves (both string ends of each color, the moves of
peterweyl.decompose's search) read them once and pass them to _power for
two results.  The four numbers never leave this module: other modules read
ends and power alone.  Nothing is cached.  The results of _power and
lp_split are built without the constructor's checks (_built_mod, and
halfpath._built for the factors): b1 stays a left and b2 a right path and
lam keeps its level, by construction; _built_mod fills ModElement's
slots through their descriptors, with no __setattr__ call.

Weights: wt(p) = (sum_k (i_{k-1} + i_k)) * (L0 - L1)
               + delta * ( l + sum_k k * (max(i_{k-1}, -i_k) - max(g_{k-1}, -g_k)) )
defines them, and a level path reads its weight off its three factors as
wt(b1) + lam + wt(b2).  ModElement.wt builds that sum as one Weight from
each factor's sum of entries and delta coefficient, read off its left view
in one pass (halfpath._weight_parts); a right path's weight is minus its
view's.  Its walls are b1's, the wall at 0 (b1's letter at -1 plus b2's
at 0 plus m), then b2's, as g_{k-1} + g_k = 0 right of 0.  walls() lists
them.  wall_sign() lists nothing: it seeds halfpath's one scan with the
sign of the wall at 0 and runs it over b1's entries, then b2's, stopping
at the first wall of the other sign.  A level path reads both through
lp_split.

The closed forms of uniform-wall paths share one layout, _star_letters:
with walls W_1 <= ... <= W_n expanded by multiplicity, the letter at q is
sign * (-1)^q * j, j the number of walls at or left of q.  It is 0 left of
W_1, +-j alternating on the j-th domain [W_j, W_{j+1}), and from W_n on
the ground pattern of sign * n.  Both closed-form stars and the B^max
seeds take their letters from it.

is_extremal_by_walls reads extremality off the walls, all of one sign; its
docstring argues from the signature rule that such an element passes the
bounded S-walk (extremal.is_extremal) at every length.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from collections.abc import Iterable, Mapping
from typing import Optional

from .core import COLORS, CrystalElement, _string_split
from .halfpath import (LEFT, RIGHT, HalfPath, WallScan, _built, _mirror, _positions,
                       _statistics, _wall_sign, _weight_parts, u_inf, u_minus_inf)
from .weights import Weight, classical


def _alt(k: int) -> int:
    """(-1)**k as an int, safe for negative k."""
    return -1 if k % 2 else 1


def _star_letters(walls: list[int], sign: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """The closed-form letters sign * (-1)^q * j at positions lo <= q < hi,
    j the number of the sorted, expanded walls at or left of q: 0 left of
    the first wall, +-j alternating on the j-th domain, and from the last
    wall on the ground pattern of sign * len(walls)."""
    return [(q, sign * _alt(q) * bisect_right(walls, q)) for q in range(lo, hi)]


@dataclass(frozen=True, slots=True)
class LevelPath(WallScan):
    """A path in P_{m,l}, stored sparsely as differences from the defaults
    (0 to the left of position 0, the ground pattern from position 0 on).
    The constructor rejects entries that list a position twice, and an m,
    l, position or value that is not an int."""

    m: int
    l: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if type(self.m) is not int or type(self.l) is not int:
            raise ValueError(f"m and l must be ints, got {self.m!r}, {self.l!r}")
        canon = tuple(sorted((k, v) for k, v in _positions(self.entries).items()
                             if v != self.default(k)))
        object.__setattr__(self, "entries", canon)

    def default(self, k: int) -> int:
        """The letter at a position not listed in entries."""
        return 0 if k < 0 else _alt(k) * self.m

    def entry(self, k: int) -> int:
        """The letter at position k."""
        return dict(self.entries).get(k, self.default(k))

    def window(self) -> tuple[int, int]:
        """Smallest [a, b] containing 0 and every non-default position."""
        positions = [k for k, _ in self.entries]
        a = min([0] + positions)
        b = max([0] + positions)
        return a, b

    def letters(self) -> list[int]:
        """The letters at the positions of window(), in order."""
        a, b = self.window()
        stored = dict(self.entries)
        return [stored.get(k, self.default(k)) for k in range(a, b + 1)]

    def key(self):
        return ("lp", self.m, self.l, self.entries)

    def __repr__(self) -> str:
        a, b = self.window()
        return f"LevelPath(m={self.m}, l={self.l}, [{a}..{b}]={self.letters()})"

    # -- weight and walls, read off the three factors -------------------------

    def wt(self) -> Weight:
        return lp_split(self).wt()

    def walls(self) -> list[tuple[int, int]]:
        return lp_split(self).walls()

    def wall_sign(self) -> Optional[int]:
        return lp_split(self).wall_sign()


def ground_path(m: int, l: int = 0) -> LevelPath:
    return LevelPath(m, l, ())


def level_path(m: int, l: int, values: Mapping[int, int]) -> LevelPath:
    return LevelPath(m, l, values)


def path_from_window(m: int, l: int, window_start: int, values: Iterable[int]) -> LevelPath:
    return level_path(m, l, {window_start + j: v for j, v in enumerate(values)})


# -- the three-factor form ---------------------------------------------------


def _ends(stats: tuple[int, int, int, int]) -> tuple[int, int]:
    """(eps_i, phi_i) of b1 (x) t_lam (x) b2 from ModElement._stats' four
    numbers; phi_i - eps_i is <h_i, wt>."""
    eps1, ph1, eps2, phi2 = stats
    return eps1 + max(0, eps2 - ph1), phi2 + max(0, ph1 - eps2)


def _built_mod(b1: HalfPath, lam: Weight, b2: HalfPath) -> "ModElement":
    """The element b1 (x) t_lam (x) b2 without the constructor's checks,
    for b1 a left and b2 a right half-path and lam of level zero by
    construction."""
    e = object.__new__(ModElement)
    _set_b1(e, b1)
    _set_lam(e, lam)
    _set_b2(e, b2)
    return e


@dataclass(frozen=True, slots=True)
class ModElement(WallScan, CrystalElement):
    """b1 (x) t_lam (x) b2 with b1 a left and b2 a right half-path."""

    b1: HalfPath
    lam: Weight
    b2: HalfPath

    def __post_init__(self):
        if not (isinstance(self.b1, HalfPath) and self.b1.side == LEFT
                and isinstance(self.b2, HalfPath) and self.b2.side == RIGHT):
            raise ValueError("b1 must be a left and b2 a right half-path")
        if not isinstance(self.lam, Weight):
            raise ValueError(f"the marker must be a Weight, got {self.lam!r}")
        if self.lam.level != 0:
            raise ValueError(f"marker weight must have level zero, got {self.lam!r}")

    def wt(self) -> Weight:
        """wt(b1) + lam + wt(b2) as one Weight; a right path's weight is
        minus its left view's."""
        total1, d1 = _weight_parts(self.b1._left)
        total2, d2 = _weight_parts(self.b2._left)
        m, lam = 2 * (total1 - total2), self.lam
        return Weight(lam.a0 + m, lam.a1 - m, lam.d + d1 - d2)

    def pairing(self, i: int) -> int:
        return self.b1.pairing(i) + self.lam.pairing(i) + self.b2.pairing(i)

    def _stats(self, i: int) -> tuple[int, int, int, int]:
        """The four numbers of the tensor rule (eps(b1), phi(b1) + <h_i, lam>,
        eps(b2), phi(b2)) of color i, from one scan of each factor's left
        view; _ends reads eps_i and phi_i off them."""
        top1, p1 = _statistics(self.b1._left, i)
        top2, p2 = _statistics(self.b2._left, i)  # the view's eps and phi are b2's phi and eps
        return top1, top1 + p1 + self.lam.pairing(i), top2 + p2, top2

    def ends(self, i: int) -> tuple[int, int]:
        return _ends(self._stats(i))

    def power(self, i: int, n: int) -> Optional["ModElement"]:
        """f_i^n for n >= 0 and e_i^(-n) for n < 0, split between b1 and b2
        by the tensor rule for strings; None when the string runs out."""
        return self._power(i, n, self._stats(i))

    def arrows(self, i: int) -> tuple[Optional["ModElement"], Optional["ModElement"]]:
        """(e_i b, f_i b) from one _stats read."""
        stats = self._stats(i)
        return self._power(i, -1, stats), self._power(i, 1, stats)

    def _power(self, i: int, n: int, stats: tuple[int, int, int, int]) -> Optional["ModElement"]:
        """power(i, n) on the four numbers _stats(i) gives.  The string
        runs out exactly where it would take e_i past eps(b1) on b1 or f_i
        past phi(b2) on b2, as every other string on a half-path is
        defined; so both factor strings are defined, keep their sides, and
        the result is built without the constructor's checks."""
        if n == 0:
            return self
        eps1, ph1, eps2, phi2 = stats
        on_left = _string_split(ph1, eps2, n)
        if -on_left > eps1 or n - on_left > phi2:
            return None
        return _built_mod(self.b1.power(i, on_left), self.lam, self.b2.power(i, n - on_left))

    def _zero_wall(self) -> int:
        """The wall at 0: b1's letter at -1 plus b2's at 0 plus m."""
        b1, b2 = self.b1.entries, self.b2.entries
        return ((b1[-1][1] if b1 and b1[-1][0] == -1 else 0)
                + (b2[0][1] if b2 and b2[0][0] == 0 else 0) + self.lam.a0)

    def walls(self) -> list[tuple[int, int]]:
        """The level path's walls (see the module docstring)."""
        zero = self._zero_wall()
        return self.b1.walls() + ([(0, zero)] if zero else []) + self.b2.walls()

    def wall_sign(self) -> Optional[int]:
        """The sign of the wall at 0, then one scan of b1 and one of b2."""
        zero = self._zero_wall()
        sign = _wall_sign(self.b1.entries, (zero > 0) - (zero < 0))
        return None if sign is None else _wall_sign(self.b2.entries, sign)

    def key(self):
        return ("mod", self.b1.key(), (self.lam.a0, self.lam.a1, self.lam.d), self.b2.key())

    def __repr__(self) -> str:
        return f"ModElement({self.b1!r}, {self.lam!r}, {self.b2!r})"


_set_b1, _set_lam, _set_b2 = (vars(ModElement)[name].__set__ for name in ("b1", "lam", "b2"))


def string_moves(b: ModElement):
    """The string-end moves at b as ((kind, color, n), image) pairs, in the
    order E_0, F_0, E_1, F_1: E_i = e_i^eps_i and F_i = f_i^phi_i, the image
    None where the exponent is 0.  Both exponents and both strings of a
    color come from one read of b's statistics."""
    for i in COLORS:
        stats = b._stats(i)
        eps, phi = _ends(stats)
        yield ("e", i, eps), (b._power(i, -eps, stats) if eps else None)
        yield ("f", i, phi), (b._power(i, phi, stats) if phi else None)


def is_extremal_by_walls(x: WallScan) -> bool:
    """Whether x is extremal, read off its walls: every wall carries one
    sign (wall_sign() is not None).  extremal.is_extremal, the bounded walk
    of alternating S-words, is the definition it is tested against.

    The argument, on the level path (i_k) of x, with S_k the sum of the
    letters left of k and the walls w_k = i_{k-1} + i_k = S_{k+1} - S_{k-1}:

    The signature.  A_k(i) = sgn(i) * (i_k + 2 * S_k) = sgn(i) * (S_k +
    S_{k+1}) steps by sgn(i) * w_k from k - 1 to k, so A_k(i) = sgn(i) * R_k
    with R_k the sum of the walls at or left of k.  R is 0 far left and W,
    the sum of all walls, far right; <h_1, wt> = -W and <h_0, wt> = W, so
    A runs from 0 to -<h_i, wt>.  The tensor rule of b1 (x) t_lam (x) b2
    is the signature rule on the whole word: eps(b1) is the maximum of A
    over k < 0 and eps(b2) - <h_i, wt(b1) + lam> its maximum over k >= 0,
    so eps_i = max_k A_k(i); e_i acts on b1 exactly when the leftmost
    maximum lies there and f_i when the rightmost does, as on a half-path.

    L1: walls of one sign make x locally extremal.  R then runs
    monotonically from 0 to W, so the maximum of A_k(i) is the larger of
    its ends: eps_i = max(0, -<h_i, wt>) for both colors, which is
    extremal._locally_extremal.

    L2: S_i (extremal.weyl_op) keeps the walls of one sign.  Take them
    positive (negative walls are the same with the colors exchanged) with
    W > 0 (W = 0 leaves no wall, and S_i is the identity).  S_1 = e_1^W
    raises the whole 1-string.  By the record rule (halfpath's module
    docstring) it acts at the records of A(1) = R read left to right; R
    being monotone, they are the wall positions, and the record at k takes
    R_k less the record before it, w_k steps.  So the letter at each wall
    position k drops by w_k, and the wall at k becomes
    w_k - w_k - w_{k-1} = -w_{k-1}.  S_0 = f_0^W lowers the whole 0-string;
    it acts at the records of A(0) = -R read right to left, the positions
    one left of a wall, taking w_{k+1} steps at k (none are left over), so
    the letter at k drops by w_{k+1} and the wall at k becomes -w_{k+1}.
    Either way every wall moves one place (right on a raise, left on a
    lowering) and changes sign: the image has walls of one sign.

    By induction on the word, each S_i along an alternating word takes the
    whole string L1 gives it, so it is defined, and its image has walls of
    one sign, so by L1 it is locally extremal: is_extremal(x, n) holds for
    every n.  The converse, that a mixed-sign element fails the walk at
    some length, does not follow from L1 and L2; it holds on every element
    the tests try, though some need words longer than 8.
    """
    return x.wall_sign() is not None


def u_lambda(lam: Weight) -> ModElement:
    """The canonical generator u (x) t_lam (x) u^dual."""
    return ModElement(u_inf(), lam, u_minus_inf())


def lp_split(p: LevelPath) -> ModElement:
    """Split a level path at position zero into its three-factor form.

    The left letters become b1; the right letters have the ground pattern
    subtracted to become b2; wt(p) = wt(b1) + lam + wt(b2) forces the
    marker weight lam = m*(L0 - L1) + l*delta.  A level path's entries
    are sorted and differ from the defaults, so both halves are canonical
    as they stand and are built without the constructors' checks.
    """
    left = tuple((k, v) for k, v in p.entries if k < 0)
    right = tuple((k, v - p.default(k)) for k, v in p.entries if k >= 0)
    return _built_mod(_built(LEFT, left, left), classical(p.m, p.l),
                      _built(RIGHT, right, _mirror(right)))


def lp_join(e: ModElement) -> LevelPath:
    """Inverse of lp_split; the family label (m, l) is read off lam."""
    m = e.lam.a0
    entries = dict(e.b1.entries)
    for k, v in e.b2.entries:
        entries[k] = v + (0 if k < 0 else _alt(k) * m)
    return LevelPath(m, e.lam.d, entries)
