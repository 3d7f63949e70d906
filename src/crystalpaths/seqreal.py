"""Sequence realization of the limit crystal.

An element is a finitely supported list (a_1, a_2, ...) of nonnegative
integers together with a color convention: position p carries first_color
when p is odd and the other color when p is even.  The entries are the
string of the element's star image: core.peel of b* from first_color gives
(c_1, a_1), (c_2, a_2), ... (the Kashiwara embedding).

Operators use the signature values, for a position p of color i,

    Ahat_p = a_p + 2 * ( sum_{q>p, color q = i} a_q - sum_{q>p, color q != i} a_q ).

Position index increases toward the "deep" end of the word, so with
M = max Ahat over positions of color i (padded by zero positions past the
support, where Ahat = 0): e_i is undefined iff M = 0 and otherwise
decrements a_p at the largest attaining position; f_i increments a_p at the
smallest attaining position.  Both change Ahat_p by +-1 and every Ahat of
color i at an earlier position by +-2, so f_i raises M by one and its
smallest argmax can only move to earlier positions, while e_i lowers M by
one and its largest argmax can only move to later ones: the half-path rule
mirrored.  power(i, n) applies a whole string in one pass: step t + 1 acts
at the outermost position beyond step t whose original Ahat is M - t, or
at the same position again, so the string is a list of (position, count)
runs read off one table from value to outermost position
(halfpath._runs), in O(L + distinct values of Ahat) rather than O(L + n).
A position occurs in one run only, so e_i's string raises ValueError
(an entry would go negative) exactly when one of its single steps would.
top(i) is the same pass with the string length read off it: eps_i is
max Ahat, and e_i^eps_i climbs to the top of the string.  e_i and f_i are
power(i, -1) and power(i, 1); the single steps on the full signature, the
reference for power, live in the tests.  The constructor raises ValueError
when first_color or an entry is not an int (a bool is not one), when
first_color is not 0 or 1, or when an entry is negative.  Results of power
and top come from _built, which skips the validating constructor: their
first color is copied from a validated element and the sweep has already
rejected a negative entry, so only the trailing zeros need trimming.  With
s_c the sum of a_p over the positions of color c, wt = -s_0 * alpha_0 -
s_1 * alpha_1 and pairing(i) = -2 * (s_i - s_(1-i)) need no per-position
weight, and ends(i) reads eps_i as the maximum of one scan and phi_i as
eps_i + pairing(i).

The realization embeds the limit crystal; the image is cut out by
(n-1)*a_{n+1} <= n*a_n for n >= 2.  Monotone sequences (a_{p+1} <= a_p)
form a distinguished subfamily that maps onto uniform-wall half-paths via a
block transform (block_transform).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import CrystalElement, peel
from .halfpath import HalfPath, _runs, apply_word, left_path, u_inf
from .weights import Weight


def _trim(a: Iterable[int]) -> tuple[int, ...]:
    vals = list(a)
    while vals and vals[-1] == 0:
        vals.pop()
    return tuple(vals)


@dataclass(frozen=True)
class SeqElement(CrystalElement):
    first_color: int
    a: tuple[int, ...]

    def __post_init__(self):
        a = tuple(self.a)
        if type(self.first_color) is not int or any(type(v) is not int for v in a):
            raise ValueError(f"first_color and entries must be ints, "
                             f"got {self.first_color!r}, {a!r}")
        if self.first_color not in (0, 1):
            raise ValueError("first_color must be 0 or 1")
        object.__setattr__(self, "a", _trim(a))
        if any(v < 0 for v in self.a):
            raise ValueError("sequence entries must be nonnegative")

    def color(self, p: int) -> int:
        return self.first_color if p % 2 == 1 else 1 - self.first_color

    def value(self, p: int) -> int:
        return self.a[p - 1] if 1 <= p <= len(self.a) else 0

    def key(self):
        return ("seq", self.first_color, self.a)

    def __repr__(self) -> str:
        return f"SeqElement(c{self.first_color}, {list(self.a)})"

    # -- crystal structure --------------------------------------------------

    def wt(self) -> Weight:
        # -s_0 * alpha_0 - s_1 * alpha_1, with alpha_0 = (2, -2, 1), alpha_1 = (-2, 2, 0)
        odd, even = sum(self.a[0::2]), sum(self.a[1::2])
        s0, s1 = (odd, even) if self.first_color == 0 else (even, odd)
        return Weight(2 * (s1 - s0), 2 * (s0 - s1), -s0)

    def pairing(self, i: int) -> int:
        # -2 * (s_i - s_(1-i))
        odd, even = sum(self.a[0::2]), sum(self.a[1::2])
        return 2 * (even - odd) if i == self.first_color else 2 * (odd - even)

    def ends(self, i: int) -> tuple[int, int]:
        eps = max(_ahat(self, i))
        return eps, eps + self.pairing(i)

    def power(self, i: int, n: int) -> Optional["SeqElement"]:
        """f_i^n for n >= 0 and e_i^(-n) for n < 0 in one pass; None when
        the string runs out, and ValueError when e_i would make an entry
        negative (outside the image)."""
        if n == 0:
            return self
        return _string(self, i, n)[1]

    def top(self, i: int) -> tuple[int, "SeqElement"]:
        """(eps_i, e_i^eps_i s) in one pass; ValueError where power(i, -eps_i)
        raises it."""
        return _string(self, i, None)


def _built(first_color: int, a: Iterable[int]) -> SeqElement:
    """The sequence element with a validated first color and nonnegative
    entries, trimmed but not checked again (see the module docstring)."""
    s = object.__new__(SeqElement)
    object.__setattr__(s, "first_color", first_color)
    object.__setattr__(s, "a", _trim(a))
    return s


def _string(s: SeqElement, i: int, n: Optional[int]) -> tuple[int, Optional[SeqElement]]:
    """(eps_i, s after f_i^n (n > 0) or e_i^(-n) (n < 0)) from one _ahat,
    None when e_i runs out; n = None climbs to the top of the string,
    e_i^eps_i, and gives s itself when eps_i = 0.  Raises ValueError when
    e_i would make an entry negative (outside the image)."""
    vals = _ahat(s, i)
    top = max(vals)
    if n is None:
        n = -top
        if not n:
            return 0, s
    elif n < 0 and top == 0:
        return 0, None
    mine = 0 if s.color(1) == i else 1  # index of the first position of color i
    a = list(s.a) + [0, 0]
    # e_i's sites move to higher positions, f_i's to lower ones
    for j, count in _runs(vals, top, n if n > 0 else min(-n, top), n < 0):
        p = mine + 2 * j
        if n < 0 and a[p] < count:
            raise ValueError("sequence entries must be nonnegative")
        a[p] += count if n > 0 else -count
    if -n > top:
        return top, None
    return top, _built(s.first_color, a)


def _ahat(s: SeqElement, i: int) -> list[int]:
    """Ahat_p(i) for the positions p of color i from the first one to the
    first one past the support, in increasing p: one pass from the deep
    end, running being the sum over q > p of a_q, counted +1 on color i and
    -1 on the other color."""
    vals = []
    running = 0
    mine = 0 if s.color(1) == i else 1  # the parity of p - 1 on color i
    for q in range(len(s.a) + 1, -1, -1):  # q = p - 1
        v = s.a[q] if q < len(s.a) else 0
        if q % 2 == mine:
            vals.append(v + 2 * running)
            running += v
        else:
            running -= v
    vals.reverse()
    return vals


def seq_generator(first_color: int = 0) -> SeqElement:
    return SeqElement(first_color, ())


def image_check(s: SeqElement) -> bool:
    """Whether s lies in the embedded copy of the limit crystal.

    The condition is (n-1)*a_{n+1} <= n*a_n for every n >= 2; there is no
    constraint between a_1 and a_2.
    """
    for n in range(2, len(s.a) + 1):
        if (n - 1) * s.value(n + 1) > n * s.value(n):
            return False
    return True


def is_monotone(s: SeqElement) -> bool:
    """a_{p+1} <= a_p for all p (the block-structured subfamily)."""
    return all(s.a[p + 1] <= s.a[p] for p in range(len(s.a) - 1))


def block_transform(s: SeqElement) -> HalfPath:
    """Block transform from a monotone sequence to a uniform-wall left path.

    Writing the sequence in blocks (positions p with a_p = m form block m),
    block m contributes the letters sgn(c)*m where c runs over the colors of
    its positions read from the highest position down, sgn(1) = +1 and
    sgn(0) = -1.  The letters of blocks 1, 2, ..., a_1 are concatenated and
    laid out ending at position -1.
    """
    if not is_monotone(s):
        raise ValueError("block_transform needs a monotone sequence")
    letters: list[int] = []
    top = s.value(1)
    for m in range(1, top + 1):
        block = [p for p in range(1, len(s.a) + 1) if s.value(p) == m]
        for p in sorted(block, reverse=True):
            sgn = 1 if s.color(p) == 1 else -1
            letters.append(sgn * m)
    n = len(letters)
    return left_path({k - n: v for k, v in enumerate(letters)})


# -- conversion between realizations ---------------------------------------


def seq_to_path(s: SeqElement) -> HalfPath:
    """The left path corresponding to s (same lowering word from the generator)."""
    return apply_word(u_inf(), reversed(peel(s, s.first_color)))


def path_to_seq(b: HalfPath, first_color: int = 0) -> SeqElement:
    """The sequence element corresponding to a left path."""
    return apply_word(seq_generator(first_color), reversed(peel(b, first_color)))
