"""The star involution on the limit crystals and the modified-algebra crystal.

On the limit crystal, b* is computed by peeling (core.peel): walk an
alternating color sequence i_1, i_2, ... and record a_k = eps_{i_k} of the
element obtained by fully raising along i_{k-1}, ..., i_1.  The recorded
list, read as a sequence-realization element with first color i_1, is
exactly the sequence form of b*; converting it back to a path gives b*.
Either starting color yields the same element; star_binf starts from color
1, so each path has one cache entry.  Each recorded a_k and its full raise
are one top(i_k), a single signature sweep on the path and again on the
sequence form (seqreal.seq_to_path peels it), so eps is read on its own
at most once per peel, when the first string is empty.

star_binf's lru_cache is the only star cache.  Right paths are starred
through the side flip: in, the flip is the path's stored left view (no
copy); out, it is one reversal of the entries.

On three-factor elements, (b1, lam, b2)* = (b1*, -lam - wt(b1) - wt(b2), b2*)
with b2 starred through the side flip; the marker is -wt(e).  The result
is built without ModElement's checks (levelpath._built_mod): star_binf
returns a left path, star_bminf a right one, and -wt(e) has level zero, as
every factor weight and lam do.  Star is an involution; it negates the
relation between the marker weight and the element weight:
wt(e*) = -lam(e) and lam(e*) = -wt(e).

Starred operators are the star conjugates X*(e) = (X(e*))*; they commute
with the plain operators and preserve the element weight while shifting the
marker weight.

For an extremal uniform-wall level path of weight -lam there is a closed
form for the star image: wall positions and multiplicities are kept, the
letters of the j-th finite inter-wall domain become +-j alternating, and the
tail from the last wall follows the ambient ground pattern of the full wall
count; a uniform-wall half-path has the same form without the tail.
star_extremal_closed and star_half_closed read those letters off
levelpath._star_letters, the one place the layout is written; they share
no code with the peeling algorithm they are tested against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .core import peel
from .halfpath import HalfPath, LEFT, RIGHT
from .levelpath import LevelPath, ModElement, _built_mod, _star_letters
from .seqreal import SeqElement, seq_to_path


@lru_cache(maxsize=1 << 18)
def star_binf(b: HalfPath) -> HalfPath:
    """Star on the limit crystal of left paths, by peeling from color 1."""
    if b.side != LEFT:
        raise ValueError("star_binf expects a left path")
    a = tuple(k for _, k in peel(b, 1))
    return seq_to_path(SeqElement(1, a))


def star_bminf(b: HalfPath) -> HalfPath:
    """Star on the dual limit crystal of right paths: flip-conjugated."""
    if b.side != RIGHT:
        raise ValueError("star_bminf expects a right path")
    return star_binf(b.flip()).flip()


def star_mod(e: ModElement) -> ModElement:
    """Star on the modified-algebra crystal."""
    return _built_mod(star_binf(e.b1), -e.wt(), star_bminf(e.b2))


def starred_e(e: ModElement, i: int) -> Optional[ModElement]:
    c = star_mod(e).e(i)
    return None if c is None else star_mod(c)


def starred_f(e: ModElement, i: int) -> Optional[ModElement]:
    c = star_mod(e).f(i)
    return None if c is None else star_mod(c)


def star_half_closed(b: HalfPath) -> HalfPath:
    """Closed-form star image of a uniform-wall half-path.

    For a left path with same-sign walls at W_1 <= ... <= W_n, the image
    keeps the walls and puts -sign * (-1)^q * j on the j-th domain
    (levelpath._star_letters).  Right paths go through the side flip, which
    exchanges wall signs and reverses the domain order.  Raises ValueError
    on mixed wall signs.
    """
    if b.side == RIGHT:
        return star_half_closed(b.flip()).flip()
    sign = b.wall_sign()
    if sign is None:
        raise ValueError("star_half_closed needs walls of a single sign")
    walls = b.wall_positions()
    return HalfPath(LEFT, _star_letters(walls, -sign, min([0] + walls), 0))


def star_extremal_closed(p: LevelPath) -> LevelPath:
    """Closed-form star image of an extremal uniform-wall level path.

    Preconditions: every wall of p carries the same sign (raises ValueError
    otherwise).  For a path with n walls at expanded positions
    W_1 <= ... <= W_n the image keeps those positions and reads its letters
    off levelpath._star_letters with the opposite sign: 0 left of W_1,
    -sign * (-1)^q * j on the j-th finite domain [W_j, W_{j+1}), and from
    W_n on the ground pattern of m_out = -sign * n.  The wall-free path is
    its own image up to the delta label.
    """
    sign = p.wall_sign()
    if sign is None:
        raise ValueError("star_extremal_closed needs walls of a single sign")
    walls = p.wall_positions()
    return LevelPath(-sign * len(walls), -p.wt().d,
                     _star_letters(walls, -sign, min([0] + walls), max([0] + walls)))
