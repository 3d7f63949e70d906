"""The elementary crystals: T_lambda, B_i, and the rank-one limit crystal.

T_lambda is a single element of weight lambda with eps = phi = -infinity and
no operators; tensoring with it shifts weights without touching the graph.

B_i is { (n)_i : n in Z } with wt (n)_i = n*alpha_i, eps_i = -n, phi_i = n,
e_i (n) = (n+1), f_i (n) = (n-1), so f_i^k (n) = (n-k); the other color has
eps = phi = -infinity and undefined operators.

LimitEntry models a single letter of the limit path crystal, identified with
Z: e_1 and f_0 decrement, e_0 and f_1 increment, eps_1(n) = phi_0(n) = n,
eps_0(n) = phi_1(n) = -n, and the weight is the classical 2n*(L0 - L1).
EndMarker is a truncation stub (all string statistics zero, no operators)
standing in for the untouched infinite tail when a path is modeled as a
finite tensor word; tensor_oracle builds that word for a left path and
oracle_mismatches compares a path's operators with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import NEG_INF, CrystalElement, TensorElement
from .weights import Weight, classical, simple_root


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
    EndMarker (x) letter_{-width} (x) ... (x) letter_{-1}, acted on by the
    tensor rules only (core._string_split): a reference for the closed-form
    path operators that shares no code with them."""
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


def oracle_mismatches(b, t: TensorElement, i: int) -> int:
    """Disagreements on color i between the left path b and t, its
    tensor_oracle word: 1 when eps or phi differ (e and f then go unchecked),
    else one for each of e and f whose results differ."""
    if b.eps(i) != t.eps(i) or b.phi(i) != t.phi(i):
        return 1
    count = 0
    for bb, tt in ((b.e(i), t.e(i)), (b.f(i), t.f(i))):
        if (bb is None) != (tt is None):
            count += 1
        elif bb is not None and bb.as_dict() != oracle_letters(tt):
            count += 1
    return count
