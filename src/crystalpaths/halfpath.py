"""Half-infinite path realizations of the limit crystals.

A left half-path is a sequence of integers (i_k) over positions k <= -1 with
i_k = 0 far to the left; these realize the direct-limit crystal generated by
raising every highest-weight realization (the path with all entries zero is
the generator u).  A right half-path lives on positions k >= 0 with zero tail
to the right and realizes the dual (lowest-weight) limit crystal; its
structure is that of its left view j_k = -i_{-k-1} (the entries of flip(),
kept as a plain tuple), with e and f exchanged and eps and phi exchanged.

Operators on a left path b act through the signature values

    A_k(i) = sgn(i) * ( i_k + 2 * sum_{j<k} i_j ),   sgn(1) = +1, sgn(0) = -1,

for k <= -1; A_k vanishes left of the support.  With M = max_k A_k (always
>= 0): e_i is undefined iff M = 0, otherwise it raises the letter at the
leftmost position attaining M; f_i always lowers the letter at the rightmost
position attaining M.  These are exactly the tensor-product rules applied to
the path read as an infinite word of letters, with position index increasing
to the left.  power(i, n) applies the whole string f_i^n (e_i^(-n) for
n < 0) in one pass, and e_i, f_i are power(i, -1), power(i, 1); on a left
path top(i) is the same pass with the string length, eps_i = max A, read
off it.

A step at k changes A_k by +-1 and every A right of k by +-2, so f_i raises
the maximum by one and its site can only move right, while e_i lowers it by
one and its site can only move left: step t + 1 acts at the outermost
position beyond step t whose original A is M - t, or at the same position
again.  A is constant across a run of zeros while the run lies ahead of the
sites, so the outermost maximum falls at a run's outer end (right for f,
left for e), and the sites are one left of the support (A = 0), the entries
and one end of each zero run.

The record rule.  Read the sites left to right for e and right to left for
f; a site is a record when its A is strictly higher than at every site read
before it.  The outermost site of level M - t lies beyond the sites of every
higher level exactly when it is a record, so a string acts only at records:
from the last record (the outermost maximum) it takes A_j - A_(j-1) steps at
record j, and f_i^n puts the steps left over on the first record, the
rightmost site.  A site tied with the record before it would take no step,
so strictness only keeps the records few.  _power_view keeps them in the
pass that computes A (from the right for f, with A less a constant) and
merges the steps into the sorted entries: O(entries) time and O(records)
memory, with no per-step loop.  _step, a single step, is one scan for the
outermost maximum and one splice.

The weight of a left path is the classical 2*(sum of entries)*(L0 - L1) plus
delta * sum_{k<=-1} k * max(i_{k-1}, -i_k); the delta term counts walls with
positional weights and makes wt(f_i b) = wt(b) - alpha_i exact.  Its term at
k is nonzero only at an entry or one position right of one, so wt is one
pass over the nonzero entries.  Since delta pairs to zero, <h_0, wt> =
-<h_1, wt> = 2*(sum of entries) on either side: pairing(i) reads it off the
entries, and ends(i), the pair (eps_i, phi_i), takes max_k A_k and that
sum from one scan of the nonzero entries (A_k is constant across a run of
zeros).

Every half-path stores its left view, built once: the entries themselves
for a left path, their mirror (k, v) -> (-k - 1, -v) in reverse order for a
right path.  A right path's view is the entries of its flip.  The public
constructor rejects a position listed twice and a position or value that
is not an int, sorts the entries, drops zeros, checks the side of 0 of
every position and builds the view; results of power, top and flip come
from _built instead, which takes the entries and the view as given.  That
is safe because they are canonical by construction: power changes letters
only at positions from one left of the support to -1 of the view, merging
them in position order and dropping the ones that reach zero, and the
mirror of a sorted, zero-free tuple on one side of 0 is sorted, zero-free
and on the other side.  _built fills HalfPath's slots through their
descriptors, with no __setattr__ call; the view _left is a field with no
init, repr or compare, so it is not part of the path's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping
from typing import Optional

from .core import CrystalElement
from .weights import Weight, classical

LEFT = "left"
RIGHT = "right"

def _positions(entries: Mapping[int, int] | Iterable[tuple[int, int]]) -> Mapping[int, int]:
    """The entries given to a public constructor, as a mapping from position
    to value.  Raises ValueError when they list a position twice, zero
    values included (a mapping cannot), or when a position or value is not
    an int (a bool is not one)."""
    if isinstance(entries, Mapping):
        positions = entries
    else:
        pairs = list(entries)
        positions = dict(pairs)
        if len(positions) < len(pairs):
            raise ValueError(f"a position is listed twice in {pairs}")
    for k, v in positions.items():
        if type(k) is not int or type(v) is not int:
            raise ValueError(f"positions and values must be ints, got {k!r}: {v!r}")
    return positions


def _canon(entries: Mapping[int, int] | Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((k, v) for k, v in _positions(entries).items() if v != 0))


def _mirror(entries: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """j_k = -i_{-k-1}: a left path's entries to its flip's and back."""
    return tuple((-k - 1, -v) for k, v in reversed(entries))


def _built(side: str, entries: tuple[tuple[int, int], ...],
           view: tuple[tuple[int, int], ...]) -> "HalfPath":
    """The half-path with canonical entries and their left view, with no
    sort, zero filter or position check (see the module docstring)."""
    b = object.__new__(HalfPath)
    _set_side(b, side)
    _set_entries(b, entries)
    _set_left(b, view)
    return b


def _statistics(view: tuple[tuple[int, int], ...], i: int) -> tuple[int, int]:
    """max_k A_k(i) and <h_i, wt> of a left path, from one scan of its
    nonzero entries."""
    sgn = 1 if i == 1 else -1
    top = 0  # A is 0 left of the support
    running = 0  # sum of entries at positions < k
    nxt = None  # the position right of the previous entry
    for k, v in view:
        if k != nxt and 2 * sgn * running > top:  # A on the zeros before k
            top = 2 * sgn * running
        a = sgn * (v + 2 * running)
        if a > top:
            top = a
        running += v
        nxt = k + 1
    if nxt is not None and nxt < 0 and 2 * sgn * running > top:  # A on the zeros up to -1
        top = 2 * sgn * running
    return top, -2 * sgn * running


def _step(view: tuple[tuple[int, int], ...], i: int,
          up: bool) -> Optional[tuple[tuple[int, int], ...]]:
    """The sorted, zero-free entries of a left path after e_i (up) or f_i,
    None where e_i is undefined: one scan for the outermost maximum of A
    over the sites of the module docstring, the letter there changed in one
    splice.  Scanning in increasing position, f_i takes a later site
    on a tie (the rightmost maximum), e_i only a strictly higher one (the
    leftmost)."""
    sgn = 1 if i == 1 else -1
    tie = 1 if up else 0
    pos = (view[0][0] if view else 0) - 1  # one left of the support, A = 0
    slot = ~0  # index in view of the entry at pos, or ~index of the next entry
    bar = tie  # the A a later site needs: the maximum so far, plus tie
    running = 0  # sum of entries at positions < k
    nxt = pos + 1  # the position right of the previous entry
    for idx, (k, v) in enumerate(view):
        if k != nxt:  # the zeros nxt..k-1
            a = 2 * sgn * running
            if a >= bar:
                bar, pos, slot = a + tie, nxt if up else k - 1, ~idx
        a = sgn * (v + 2 * running)
        if a >= bar:
            bar, pos, slot = a + tie, k, idx
        running += v
        nxt = k + 1
    if nxt < 0:  # the zeros nxt..-1
        a = 2 * sgn * running
        if a >= bar:
            bar, pos, slot = a + tie, nxt if up else -1, ~len(view)
    if up and bar == tie:  # max A = 0
        return None
    letter = -sgn if up else sgn
    if slot < 0:
        return view[:~slot] + ((pos, letter),) + view[~slot:]
    v = view[slot][1] + letter
    return view[:slot] + (((pos, v),) if v else ()) + view[slot + 1:]


def _power_view(view: tuple[tuple[int, int], ...], i: int,
                n: Optional[int]) -> tuple[int, Optional[tuple[tuple[int, int], ...]]]:
    """(max A, entries): eps_i of the left path and the sorted, zero-free
    entries after f_i^n (n >= 0) or e_i^(-n) (n < 0), None when e_i runs
    out; n = None climbs to the top of the string, e_i^(max A), and gives
    the view itself when max A = 0, by the record rule of the module
    docstring."""
    sgn = 1 if i == 1 else -1
    # the records in reading order: A, the A of the record before, the position
    # and the index in view of the entry there, or ~index of the next entry
    records: list[tuple[int, int, int, int]] = []
    if n is not None and n > 0:  # right to left, A less 2 * sgn * (sum of entries)
        best = float("-inf")
        running = 0  # minus the sum of entries at positions >= k
        prev = 0  # the position of the entry read before
        for idx in range(len(view) - 1, -1, -1):
            k, v = view[idx]
            if k + 1 != prev:  # the zeros k+1..prev-1, at their right end
                a = 2 * sgn * running
                if a > best:
                    records.append((a, best, prev - 1, ~idx - 1))
                    best = a
            running -= v
            a = sgn * (v + 2 * running)
            if a > best:
                records.append((a, best, k, idx))
                best = a
            prev = k
        a = 2 * sgn * running  # one left of the support, where A = 0
        if a > best:
            records.append((a, best, prev - 1, ~0))
            best = a
        top, floor, letter = best - a, best - n, sgn
        records.reverse()
    else:  # left to right
        lo = (view[0][0] if view else 0) - 1
        records.append((0, 0, lo, ~0))  # one left of the support
        top = 0
        running = 0  # sum of entries at positions < k
        nxt = lo + 1  # the position right of the previous entry
        for idx, (k, v) in enumerate(view):
            if k != nxt:  # the zeros nxt..k-1, at their left end
                a = 2 * sgn * running
                if a > top:
                    records.append((a, top, nxt, ~idx))
                    top = a
            a = sgn * (v + 2 * running)
            if a > top:
                records.append((a, top, k, idx))
                top = a
            running += v
            nxt = k + 1
        if nxt < 0:  # the zeros nxt..-1
            a = 2 * sgn * running
            if a > top:
                records.append((a, top, nxt, ~len(view)))
                top = a
        steps = top if n is None else -n
        if steps > top:
            return top, None
        if not steps:
            return top, view
        floor, letter = top - steps, -sgn
    # in increasing position, each record takes the steps from its A down to
    # the A of the record read before it, or to floor
    out: list[tuple[int, int]] = []
    done = 0  # entries of view already passed
    for a, below, k, idx in records:
        if a > floor:
            v = letter * (a - (below if below > floor else floor))
            if idx < 0:
                out += view[done:~idx]
                done = ~idx
            else:
                out += view[done:idx]
                v += view[idx][1]
                done = idx + 1
            if v:
                out.append((k, v))
    out += view[done:]
    return top, tuple(out)


def _weight_parts(view: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """(sum of entries, delta coefficient) of a left path in one pass over
    its nonzero entries: the term k * max(i_{k-1}, -i_k) is nonzero only at
    an entry k, or at a zero k right of an entry, where it is
    k * max(i_{k-1}, 0)."""
    total = d = 0
    prev, last = 0, None  # the previous entry's value and position
    for k, v in view:
        if last is not None and last != k - 1:
            if prev > 0:  # the zero right of the previous entry
                d += (last + 1) * prev
            prev = 0
        d += k * max(prev, -v)
        total += v
        prev, last = v, k
    if last is not None and last < -1 and prev > 0:
        d += (last + 1) * prev
    return total, d


def _wall_sign(entries: tuple[tuple[int, int], ...], sign: int) -> Optional[int]:
    """The sign of the walls of sorted, zero-free entries, in one pass that
    stops at the first wall of the other sign: the wall at k is
    i_{k-1} + i_k, and the one at 0 is skipped (it belongs to neither half).
    sign is that of the walls seen before (0 for none); the result is +1 or
    -1 when every wall agrees with it, sign itself when there is no wall,
    and None at the first wall that does not."""
    nxt, carry = None, 0  # the position right of the previous entry, and its letter
    for k, v in entries:
        if k != nxt:
            if carry and nxt:  # the wall right of the previous entry: its letter alone
                if carry * sign < 0:
                    return None
                sign = 1 if carry > 0 else -1
            carry = 0
        w = carry + v
        if w and k:
            if w * sign < 0:
                return None
            sign = 1 if w > 0 else -1
        nxt, carry = k + 1, v
    if carry and nxt:  # the wall right of the last entry
        if carry * sign < 0:
            return None
        sign = 1 if carry > 0 else -1
    return sign


class WallScan:
    """Walls of a path, shared by half-paths, level paths and three-factor
    elements.

    The wall at k sits between letters k-1 and k and carries multiplicity
    |i_{k-1} + i_k|; its sign is the sign of that sum.  Subclasses provide
    walls(), the listing read off the nonzero entries (a level path's
    through its three factors), and wall_sign(): +1 / -1 if every wall has
    that sign, 0 if there is no wall, else None.  wall_sign reads no list:
    it is one pass of _wall_sign over the same entries, which stops at the
    first wall of the other sign.
    """

    __slots__ = ()

    def wall_positions(self) -> list[int]:
        """Wall positions repeated with multiplicity, in increasing order."""
        out: list[int] = []
        for k, s in self.walls():
            out.extend([k] * abs(s))
        return out


@dataclass(frozen=True, slots=True)
class HalfPath(WallScan, CrystalElement):
    side: str
    entries: tuple[tuple[int, int], ...]
    _left: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        entries = _canon(self.entries)
        for k, _ in entries:
            if self.side == LEFT and k > -1:
                raise ValueError(f"left path entry at nonnegative position {k}")
            if self.side == RIGHT and k < 0:
                raise ValueError(f"right path entry at negative position {k}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_left", entries if self.side == LEFT else _mirror(entries))

    # -- basic access -----------------------------------------------------

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def support(self) -> list[int]:
        return [k for k, _ in self.entries]

    def flip(self) -> "HalfPath":
        """Exchange sides: j_k = -i_{-k-1}.  An involution conjugating e/f.
        A right path's flip is its left view; a left path's is one mirror."""
        if self.side == RIGHT:
            return _built(LEFT, self._left, self._left)
        return _built(RIGHT, _mirror(self.entries), self.entries)

    def key(self):
        return ("hp", self.side, self.entries)

    def __repr__(self) -> str:
        return f"HalfPath({self.side}, {dict(self.entries)})"

    # -- crystal structure -------------------------------------------------

    def wt(self) -> Weight:
        total, d = _weight_parts(self._left)
        return classical(2 * total, d) if self.side == LEFT else classical(-2 * total, -d)

    def pairing(self, i: int) -> int:
        s = 2 * sum(v for _, v in self.entries)
        return s if i == 0 else -s

    def ends(self, i: int) -> tuple[int, int]:
        top, pairing = _statistics(self._left, i)
        return (top, top + pairing) if self.side == LEFT else (top + pairing, top)

    # CrystalElement's e and f, restated: bench/test_bench.py checks that
    # its tracer wraps and restores HalfPath.e in this class's own dict
    def e(self, i: int) -> Optional["HalfPath"]:
        return self.power(i, -1)

    def f(self, i: int) -> Optional["HalfPath"]:
        return self.power(i, 1)

    def power(self, i: int, n: int) -> Optional["HalfPath"]:
        """f_i^n for n >= 0 and e_i^(-n) for n < 0 by the signature rule;
        None when the string runs out."""
        if n == 0:
            return self
        m = n if self.side == LEFT else -n  # the view's e and f are exchanged
        if m == 1 or m == -1:
            view = _step(self._left, i, m < 0)
        else:
            _, view = _power_view(self._left, i, m)
        if view is None:
            return None
        return _built(LEFT, view, view) if self.side == LEFT else _built(RIGHT, _mirror(view), view)

    def top(self, i: int) -> tuple[int, "HalfPath"]:
        """(eps_i, e_i^eps_i b); on a left path from one pass that reads
        eps_i = max A and climbs.  A right path's climb is f_i^phi_i on its
        view, a string whose length that pass does not read first, so it
        takes eps and power."""
        if self.side != LEFT:
            return CrystalElement.top(self, i)
        k, view = _power_view(self._left, i, None)
        return k, (_built(LEFT, view, view) if k else self)

    # -- walls and domains --------------------------------------------------

    def walls(self) -> list[tuple[int, int]]:
        """Positions k with i_{k-1} + i_k != 0, with the signed sum: the
        letter at k adds to the walls at k and k + 1, and the entries are
        sorted, so the walls come out in increasing order."""
        sums: dict[int, int] = {}
        for k, v in self.entries:
            sums[k] = sums.get(k, 0) + v
            sums[k + 1] = sums.get(k + 1, 0) + v
        sums.pop(0, None)  # a wall at position 0 belongs to neither half
        return [(k, s) for k, s in sums.items() if s]

    def wall_sign(self) -> Optional[int]:
        return _wall_sign(self.entries, 0)

    def domains(self) -> list[tuple[int, int]]:
        """Finite domains (start, length) between consecutive walls.

        With expanded wall positions W_1 <= ... <= W_n, domain j (1-based)
        starts at W_j and runs to W_{j+1} - 1 (length zero for stacked
        walls); the last domain runs to position -1.  The infinite all-zero
        domain to the left is not listed.
        """
        walls = self.wall_positions()
        out = []
        for j, w in enumerate(walls):
            end = walls[j + 1] if j + 1 < len(walls) else 0
            out.append((w, end - w))
        return out


_set_side, _set_entries, _set_left = (vars(HalfPath)[name].__set__
                                      for name in ("side", "entries", "_left"))


def u_inf() -> HalfPath:
    """The all-zero left path: the limit-crystal generator."""
    return HalfPath(LEFT, ())


def u_minus_inf() -> HalfPath:
    """The all-zero right path: the dual generator."""
    return HalfPath(RIGHT, ())


def left_path(entries: Mapping[int, int] | Iterable[tuple[int, int]]) -> HalfPath:
    return HalfPath(LEFT, entries)


def right_path(entries: Mapping[int, int] | Iterable[tuple[int, int]]) -> HalfPath:
    return HalfPath(RIGHT, entries)


def from_word(values: Iterable[int]) -> HalfPath:
    """Left path from entries listed left to right, ending at position -1."""
    vals = list(values)
    n = len(vals)
    return left_path({k - n: v for k, v in enumerate(vals)})


def string_factorization(b: HalfPath) -> list[tuple[int, int]]:
    """Lowering word reaching b from the generator, for uniform-wall paths.

    Requires every wall of b to carry the same sign.  Returns a list of
    (color, power) pairs; applying f_color^power in list order to the
    all-zero path reproduces b.  There is one pair per position q of the
    finite domains, left to right, with power j on the j-th domain; colors
    alternate and are anchored at the final slot (position -1), color 1
    for positive walls and color 0 for negative walls.
    """
    if b.side != LEFT:
        raise ValueError("string_factorization is defined for left paths")
    sign = b.wall_sign()
    if sign is None:
        raise ValueError("string_factorization needs walls of a single sign")
    last = 1 if sign > 0 else 0  # the color at position -1
    return [(last if q % 2 else 1 - last, j)
            for j, (start, length) in enumerate(b.domains(), start=1)
            for q in range(start, start + length)]


def apply_word(b: CrystalElement, word: Iterable[tuple[int, int]]) -> Optional[CrystalElement]:
    """Apply f_color^n (e_color^-n when n < 0) pair by pair; None if a step is undefined."""
    for color, n in word:
        b = b.power(color, n)
        if b is None:
            return None
    return b
