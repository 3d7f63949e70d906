"""The flat tensor word of elementary against the nested tensor chain.

oracle-check and acceptance criterion 2 read a left path's operators off
elementary.word_operators, a plain list of letters; the generic reference
is crystals.tensor_oracle, the same letters as a left-nested chain of
TensorElements behind an EndMarker.
"""

import random

from crystalpaths.elementary import oracle_word, word_letters, word_operators

from crystals import oracle_letters, tensor_oracle


def letter_words(count: int, seed: int):
    """count random words of 1 to 12 letters in [-3, 3], a third of them
    with a single nonzero letter, where a step often reaches the end."""
    rng = random.Random(seed)
    for k in range(count):
        width = rng.randint(1, 12)
        if k % 3:
            yield [rng.randint(-3, 3) for _ in range(width)]
        else:
            word = [0] * width
            word[rng.randrange(width)] = rng.choice((-2, -1, 1, 2))
            yield word


def chain_image(t):
    return None if t is None else oracle_letters(t)


def test_flat_word_matches_the_nested_chain():
    undefined = set()
    for word in letter_words(3000, seed=20261019):
        t = tensor_oracle(word_letters(word), len(word))
        for i in (0, 1):
            eps, phi, up, down = word_operators(word, i)
            assert (eps, phi) == (t.eps(i), t.phi(i)), (word, i)
            for op, w, c in (("e", up, t.e(i)), ("f", down, t.f(i))):
                assert (None if w is None else word_letters(w)) == chain_image(c), (word, i, op)
                if w is None:
                    undefined.add((op, i))
    # the sample reaches the end marker with both operators of both colors
    assert undefined == {("e", 0), ("e", 1), ("f", 0), ("f", 1)}


def test_oracle_word_reads_the_window():
    assert oracle_word({-5: 2, -3: 1, -1: -1}, 4) == [0, 1, 0, -1]
    assert word_letters([0, 1, 0, -1]) == {-3: 1, -1: -1}
