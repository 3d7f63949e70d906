"""Weight lattice of affine sl2.

Weights are integer combinations a0*L0 + a1*L1 + d*delta, where L0 and L1 are
the fundamental weights and delta is the null root.  The simple coroots pair
by <h_i, L_j> = (i == j) and <h_i, delta> = 0, so the pairing against h_i
ignores the delta coordinate.  The simple roots are

    alpha_1 = -2*L0 + 2*L1,    alpha_0 = 2*L0 - 2*L1 + delta,

and delta = alpha_0 + alpha_1.  The level of a weight is a0 + a1; level-zero
weights form the sublattice Z*(L0 - L1) + Z*delta.  Weight is a slotted
frozen dataclass whose __init__ fills the slots through their descriptors,
with no __setattr__ call.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Weight:
    """An affine sl2 weight a0*L0 + a1*L1 + d*delta."""

    a0: int
    a1: int
    d: int = 0

    def __init__(self, a0: int, a1: int, d: int = 0):
        _set_a0(self, a0)
        _set_a1(self, a1)
        _set_d(self, d)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.a0 + other.a0, self.a1 + other.a1, self.d + other.d)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.a0 - other.a0, self.a1 - other.a1, self.d - other.d)

    def __neg__(self) -> "Weight":
        return Weight(-self.a0, -self.a1, -self.d)

    def __mul__(self, n: int) -> "Weight":
        return Weight(n * self.a0, n * self.a1, n * self.d)

    __rmul__ = __mul__

    def pairing(self, i: int) -> int:
        """<h_i, self>: the coefficient of L_i (delta pairs to zero)."""
        return self.a0 if i == 0 else self.a1

    @property
    def level(self) -> int:
        return self.a0 + self.a1

    def reflect(self, i: int) -> "Weight":
        """Simple reflection s_i(w) = w - <h_i, w> * alpha_i."""
        return self - self.pairing(i) * simple_root(i)

    def __repr__(self) -> str:
        return f"Weight({self.a0}, {self.a1}, {self.d})"


_set_a0, _set_a1, _set_d = (vars(Weight)[name].__set__ for name in ("a0", "a1", "d"))

DELTA = Weight(0, 0, 1)
L0 = Weight(1, 0, 0)
L1 = Weight(0, 1, 0)
# Generator of level-zero classical weights; every level-zero weight is
# m * CLW + l * DELTA with m = a0, l = d.
CLW = L0 - L1


def simple_root(i: int) -> Weight:
    if i == 0:
        return Weight(2, -2, 1)
    if i == 1:
        return Weight(-2, 2, 0)
    raise ValueError(f"color must be 0 or 1, got {i}")


def classical(m: int, l: int = 0) -> Weight:
    """The level-zero weight m*(L0 - L1) + l*delta."""
    return Weight(m, -m, l)


def orbit_canonical(w: Weight) -> Weight:
    """Canonical affine Weyl orbit representative of a level-zero weight.

    For w = m*(L0-L1) + l*delta the orbit under s_0, s_1 is
    { (+-m)*(L0-L1) + (l + k*m)*delta : k an integer }: s_1 flips the sign
    of m, and s_0 then s_1 lowers l by |m|.  The representative, read off
    in closed form, has m >= 0 and, when m > 0, delta coordinate reduced
    into [0, m); at m = 0 the orbit is {w}.
    """
    if w.level != 0:
        raise ValueError(f"orbit_canonical needs a level-zero weight, got {w!r}")
    m, l = w.a0, w.d
    return w if m == 0 else classical(abs(m), l % abs(m))
