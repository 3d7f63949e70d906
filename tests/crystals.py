"""The generic crystals the tests build on, and the nested tensor oracle.

TensorElement and DualElement are the tensor product and dual of any two
crystal elements, by the formulas of the core module docstring: the
generic reference that ModElement and the flat tensor word of elementary
are checked against.  T_lambda (TElement) is a single element of weight
lambda with eps = phi = -infinity and no operators; tensoring with it
shifts weights without touching the graph.  B_i (BiElement) is
{ (n)_i : n in Z } with wt (n)_i = n*alpha_i, eps_i = -n, phi_i = n and
f_i^k (n) = (n-k); the other color has eps = phi = -infinity and no
operators.

LimitEntry is a single letter of the limit path crystal, identified with
Z: e_1 and f_0 decrement, e_0 and f_1 increment, eps_1(n) = phi_0(n) = n,
eps_0(n) = phi_1(n) = -n, and the weight is the classical 2n*(L0 - L1).
EndMarker is a truncation stub (all string statistics zero, no operators)
standing in for the untouched infinite tail when a path is modeled as a
finite tensor word.  tensor_oracle builds that word for a left path as a
left-nested chain of TensorElements, and oracle_letters reads its letters
back: the reference the flat word of elementary.word_operators is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from crystalpaths.core import COLORS, NEG_INF, CrystalElement, _string_split
from crystalpaths.weights import Weight, classical, simple_root


@dataclass(frozen=True)
class TensorElement(CrystalElement):
    """Tensor product of two crystal elements.

    The string statistics are one value per instance, built on first use:
    (pairing, eps, phi) for each color by the formulas of the core module
    docstring, from the factors' statistics.  Deep tensor words read the
    statistics of every prefix, so without it the recursion is quadratic in
    the word length; pairing is the sum of the factors' pairings, so
    eps/phi never build a prefix weight.  power is the tensor rule for
    strings, through core._string_split."""

    left: CrystalElement
    right: CrystalElement

    @cached_property
    def _stats(self) -> tuple[tuple, ...]:
        """(pairing, eps, phi) of each color."""
        b1, b2 = self.left, self.right
        out = []
        for i in COLORS:
            p1, p2 = b1.pairing(i), b2.pairing(i)
            out.append((p1 + p2, max(b1.eps(i), b2.eps(i) - p1),
                        max(b2.phi(i), b1.phi(i) + p2)))
        return tuple(out)

    def wt(self) -> Weight:
        return self.left.wt() + self.right.wt()

    def pairing(self, i: int) -> int:
        return self._stats[i][0]

    def eps(self, i: int):
        return self._stats[i][1]

    def phi(self, i: int):
        return self._stats[i][2]

    def power(self, i: int, n: int):
        if n == 0:
            return self
        on_left = _string_split(self.left.phi(i), self.right.eps(i), n)
        left = self.left.power(i, on_left)
        right = None if left is None else self.right.power(i, n - on_left)
        return None if right is None else TensorElement(left, right)

    def key(self):
        return ("tensor", self.left.key(), self.right.key())


@dataclass(frozen=True)
class DualElement(CrystalElement):
    """Dual crystal: weights negate, eps/phi swap, e/f swap."""

    inner: CrystalElement

    def wt(self) -> Weight:
        return -self.inner.wt()

    def eps(self, i: int):
        return self.inner.phi(i)

    def phi(self, i: int):
        return self.inner.eps(i)

    def power(self, i: int, n: int):
        c = self.inner.power(i, -n)
        return None if c is None else DualElement(c)

    def key(self):
        return ("dual", self.inner.key())


@dataclass(frozen=True)
class TElement(CrystalElement):
    lam: Weight

    def wt(self) -> Weight:
        return self.lam

    def eps(self, i: int):
        return NEG_INF

    def phi(self, i: int):
        return NEG_INF

    def power(self, i: int, n: int):
        return self if n == 0 else None

    def key(self):
        return ("t", self.lam.a0, self.lam.a1, self.lam.d)


@dataclass(frozen=True)
class BiElement(CrystalElement):
    color: int
    n: int

    def wt(self) -> Weight:
        return self.n * simple_root(self.color)

    def eps(self, i: int):
        return -self.n if i == self.color else NEG_INF

    def phi(self, i: int):
        return self.n if i == self.color else NEG_INF

    def power(self, i: int, n: int):
        if n == 0:
            return self
        return BiElement(self.color, self.n - n) if i == self.color else None

    def key(self):
        return ("bi", self.color, self.n)


@dataclass(frozen=True)
class LimitEntry(CrystalElement):
    n: int

    def wt(self) -> Weight:
        return classical(2 * self.n)

    def pairing(self, i: int) -> int:
        return 2 * self.n if i == 0 else -2 * self.n

    def eps(self, i: int):
        return -self.n if i == 0 else self.n

    def phi(self, i: int):
        return self.n if i == 0 else -self.n

    def power(self, i: int, n: int):
        if n == 0:
            return self
        return LimitEntry(self.n + n if i == 1 else self.n - n)

    def key(self):
        return ("z", self.n)


@dataclass(frozen=True)
class EndMarker(CrystalElement):
    """Truncation stub for an infinite tail of a path tensor word.

    Statistics eps = phi = 0 of weight zero: raising and lowering are left
    undefined, which is correct whenever the word keeps enough slack that no
    operator would act beyond the truncation window.
    """

    side: str = "left"

    def wt(self) -> Weight:
        return Weight(0, 0, 0)

    def pairing(self, i: int) -> int:
        return 0

    def eps(self, i: int):
        return 0

    def phi(self, i: int):
        return 0

    def power(self, i: int, n: int):
        return self if n == 0 else None

    def key(self):
        return ("end", self.side)


def tensor_oracle(entries: dict[int, int], width: int) -> TensorElement:
    """The left path with the given entries as the tensor word
    EndMarker (x) letter_{-width} (x) ... (x) letter_{-1}, left-nested and
    acted on by the generic tensor rules only: the reference for the flat
    word of elementary.word_operators and for the path operators."""
    cur = TensorElement(EndMarker("left"), LimitEntry(entries.get(-width, 0)))
    for k in range(-width + 1, 0):
        cur = TensorElement(cur, LimitEntry(entries.get(k, 0)))
    return cur


def oracle_letters(t) -> dict[int, int]:
    """Nonzero letters of a tensor_oracle word by position."""
    letters = []
    node = t
    while isinstance(node, TensorElement):
        letters.append(node.right.n)
        node = node.left
    letters.reverse()
    return {k - len(letters): v for k, v in enumerate(letters) if v != 0}

