"""The tensor-word oracle for left paths.

The paper's crystal structure on paths is the tensor rule applied to a word
of letters of the rank-one limit crystal, identified with Z: a letter n has
<h_0, wt> = 2n, <h_1, wt> = -2n, eps_0 = -n, eps_1 = n and phi = eps +
<h_i, wt>; e_1 and f_0 decrement it, e_0 and f_1 increment it.  A left path
is the word end (x) letter_{-width} (x) ... (x) letter_{-1}, the end marker
standing in for the untouched infinite tail: its statistics are all zero
and it has no operators, which is correct whenever the word keeps enough
slack that no operator acts beyond it.

The word is a plain list of letters.  word_operators folds the prefix
statistics (pairing, eps, phi) of one color from the end marker rightwards
by the binary tensor formulas of core, and e/f descend from the right end:
at each letter, core._string_split decides whether the step acts on the
letter or on the prefix to its left, so one step changes one letter, and
it is undefined when it would reach the end marker.  The oracle shares no
code with the path operators; oracle_mismatches compares them.
"""

from __future__ import annotations

from typing import Optional

from .core import _string_split


def oracle_word(entries: dict[int, int], width: int) -> list[int]:
    """The letters of a left path at the positions -width, ..., -1."""
    return [entries.get(k, 0) for k in range(-width, 0)]


def word_operators(word: list[int], i: int) -> tuple[int, int, Optional[list[int]],
                                                     Optional[list[int]]]:
    """(eps_i, phi_i, e_i word, f_i word) of the tensor word; an image is
    None where the step would act on the end marker."""
    sgn = 1 if i == 0 else -1
    pairing = eps = phi = 0  # the end marker
    phis = []  # phis[j]: phi_i of the end marker and the letters before j
    for n in word:
        phis.append(phi)
        p, e = 2 * sgn * n, -sgn * n
        pairing, eps, phi = pairing + p, max(eps, e - pairing), max(e + p, phi + p)

    def step(n: int) -> Optional[list[int]]:
        for j in range(len(word) - 1, -1, -1):
            if not _string_split(phis[j], -sgn * word[j], n):  # acts on letter j
                out = list(word)
                out[j] -= sgn * n
                return out
        return None

    return eps, phi, step(-1), step(1)


def word_letters(word: list[int]) -> dict[int, int]:
    """Nonzero letters of a word by position, the last one at -1."""
    return {k - len(word): v for k, v in enumerate(word) if v != 0}


def oracle_mismatches(b, word: list[int], i: int) -> int:
    """Disagreements on color i between the left path b and word, its
    oracle_word: 1 when eps or phi differ (e and f then go unchecked), else
    one for each of e and f whose results differ."""
    eps, phi, up, down = word_operators(word, i)
    if b.ends(i) != (eps, phi):
        return 1
    count = 0
    for bb, ww in ((b.e(i), up), (b.f(i), down)):
        if (bb is None) != (ww is None):
            count += 1
        elif bb is not None and bb.as_dict() != word_letters(ww):
            count += 1
    return count
