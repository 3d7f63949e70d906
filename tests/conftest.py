"""Shared helpers for the test suite.

The tensor-chain oracle re-builds a left path as an explicit iterated tensor
product of single-letter crystals behind an inert end marker, so that the
closed-form operators on paths can be checked against the raw tensor rules
with no shared code path.
"""

import random

from crystalpaths import HalfPath, LevelPath, left_path, u_inf
from crystalpaths.elementary import oracle_mismatches, tensor_oracle


def agree_with_oracle(b: HalfPath, width: int = 10) -> bool:
    t = tensor_oracle(b.as_dict(), width)
    return all(oracle_mismatches(b, t, i) == 0 for i in (0, 1))


def same_entries(p: LevelPath, q: LevelPath) -> bool:
    """Equality of two level paths as bare paths: same ambient classical
    part and the same entry function, ignoring the delta labels."""
    if p.m != q.m:
        return False
    a = min(p.window()[0], q.window()[0])
    b = max(p.window()[1], q.window()[1])
    return all(p.entry(k) == q.entry(k) for k in range(a, b + 1))


def random_walk(start, steps: int, rng: random.Random):
    """Random lowering/raising walk from a crystal element."""
    cur = start
    for _ in range(steps):
        i = rng.randrange(2)
        nxt = cur.f(i) if rng.random() < 0.7 else cur.e(i)
        if nxt is not None:
            cur = nxt
    return cur


def random_binf_elements(count: int, max_steps: int, seed: int = 0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(random_walk(u_inf(), rng.randrange(max_steps + 1), rng))
    return out
