"""Shared helpers for the test suite.

agree_with_oracle checks a left path's operators against the flat tensor
word of elementary, the letters of the path behind an inert end marker
acted on by the tensor rules only, with no code shared with the path
operators.  The generic crystals (tensor products, duals, the elementary
crystals and the nested tensor oracle) live in crystals.py.

The library has one operator per element type, the whole string
power(i, n).  The single steps it is checked against live here, each by
its definition: the raw tensor tie-break, dense signatures rescanned at
every step for half-paths and sequences, and the elementary crystals'
rules.  single_steps(b, i, n) loops them.  reference_check_axioms is the
straight-line axiom checker that re-reads every fact at every arrow end.
counted_weyl_ops(monkeypatch) records the S_i steps the library takes,
counted_strings(monkeypatch) the half-path strings it computes.  Every
test starts with an empty star cache (cold_star_cache).
"""

import random
import sys

import pytest

from crystalpaths import HalfPath, LevelPath, SeqElement, left_path, seq_to_path, u_inf
from crystalpaths.core import COLORS, NEG_INF, peel
from crystalpaths.elementary import oracle_mismatches, oracle_word
from crystalpaths.levelpath import ModElement
from crystalpaths.star import star_binf
from crystalpaths.weights import simple_root

from crystals import BiElement, DualElement, EndMarker, LimitEntry, TElement, TensorElement

# the weights of the pw_verify benchmark workload, as (m, l)
BENCH_LAMBDAS = ((1, 0), (2, 0), (3, 0), (4, 0), (-3, 0), (2, 1), (-4, 1))


@pytest.fixture(autouse=True)
def cold_star_cache():
    """star_binf's cache outlives every command in one process; clearing it
    before each test keeps a star image computed by one test (a wrong one,
    under a mutant) out of every later test."""
    star_binf.cache_clear()


def counted_weyl_ops(monkeypatch) -> list:
    """The (element key, color) of every weyl_op call from then on, counted
    under every name that binds it in the library."""
    from crystalpaths import extremal
    original = extremal.weyl_op
    calls = []

    def counting(e, i):
        calls.append((e.key(), i))
        return original(e, i)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "crystalpaths" and getattr(module, "weyl_op", None) is original:
            monkeypatch.setattr(module, "weyl_op", counting)
    return calls


def counted_strings(monkeypatch) -> list:
    """The color of each half-path string computed from then on.  power
    computes a string by _step (one step) or _power_view with an int n;
    top calls _power_view with n = None and is not counted."""
    from crystalpaths import halfpath
    calls = []
    step, power_view = halfpath._step, halfpath._power_view

    def counted_step(view, i, up):
        calls.append(i)
        return step(view, i, up)

    def counted_power_view(view, i, n):
        if n is not None:
            calls.append(i)
        return power_view(view, i, n)

    monkeypatch.setattr(halfpath, "_step", counted_step)
    monkeypatch.setattr(halfpath, "_power_view", counted_power_view)
    return calls


def agree_with_oracle(b: HalfPath, width: int = 10) -> bool:
    """Whether b's eps, phi, e and f of both colors match the tensor word
    of its letters at -width, ..., -1."""
    word = oracle_word(b.as_dict(), width)
    return all(oracle_mismatches(b, word, i) == 0 for i in COLORS)


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


def left_signature(b: HalfPath, i: int) -> dict[int, int]:
    """A_k(i) = sgn(i) * (i_k + 2 * sum_{j<k} i_j) of a left path by
    position, from one left of its support to -1, sgn(1) = 1, sgn(0) = -1."""
    view = b.as_dict()
    sgn = 1 if i == 1 else -1
    out, running = {}, 0
    for k in range(min(view, default=0) - 1, 0):
        out[k] = sgn * (view.get(k, 0) + 2 * running)
        running += view.get(k, 0)
    return out


def nested_sum_signature(s: SeqElement, i: int) -> dict[int, int]:
    """The signature formula of the seqreal docstring, summed term by term:
    Ahat_p = a_p + 2 * (sum_{q>p, color q = i} a_q - sum_{q>p, color q != i} a_q)
    for the positions p of color i up to two past the support."""
    n = len(s.a)
    return {p: s.value(p) + 2 * (
                sum(s.value(q) for q in range(p + 1, n + 1) if s.color(q) == i)
                - sum(s.value(q) for q in range(p + 1, n + 1) if s.color(q) != i))
            for p in range(1, n + 3) if s.color(p) == i}


def stepwise_power(b: HalfPath, i: int, n: int):
    """f_i^n / e_i^(-n) of a half-path by single steps on its left view's
    signature, rescanned for the maximum at every step: f_i moves the
    letter at the rightmost maximum, e_i the one at the leftmost, and the
    step changes A there by +-1 and every A to its right by +-2.  A right
    path works on the view with e and f exchanged."""
    view = b.as_dict() if b.side == "left" else b.flip().as_dict()
    m = n if b.side == "left" else -n
    lo = min(view, default=0) - 1 - max(m, 0)  # room for f_i to extend the support
    sgn = 1 if i == 1 else -1
    vals, running = [], 0
    for k in range(lo, 0):
        vals.append(sgn * (view.get(k, 0) + 2 * running))
        running += view.get(k, 0)
    step = 1 if m > 0 else -1
    for _ in range(abs(m)):
        top = max(vals)
        if m > 0:
            j = len(vals) - 1 - vals[::-1].index(top)
        elif top == 0:
            return None
        else:
            j = vals.index(top)
        view[lo + j] = view.get(lo + j, 0) + sgn * step
        vals[j] += step
        vals[j + 1:] = [v + 2 * step for v in vals[j + 1:]]
    out = left_path(view)
    return out if b.side == "left" else out.flip()


def sequence_step(s: SeqElement, i: int, up: bool):
    """e_i (up) or f_i of a sequence element on its full signature: e_i
    lowers a_p at the largest position attaining the maximum and is
    undefined when it is 0, f_i raises a_p at the smallest.  A negative
    entry raises ValueError in the constructor."""
    sig = nested_sum_signature(s, i)
    top = max(sig.values())
    if up and top == 0:
        return None
    p = (max if up else min)(q for q, v in sig.items() if v == top)
    a = list(s.a) + [0] * max(0, p - len(s.a))
    a[p - 1] += -1 if up else 1
    return SeqElement(s.first_color, tuple(a))


def single_step(b, i: int, up: bool):
    """e_i (up) or f_i of b by the single-step definitions, sharing no code
    with any power: on a tensor product e_i acts on the left factor iff
    phi_i(left) >= eps_i(right) and f_i iff phi_i(left) > eps_i(right); a
    three-factor element steps as b1 (x) t_lam (x) b2."""
    if isinstance(b, TensorElement):
        ph, ep = b.left.phi(i), b.right.eps(i)
        if (ph >= ep) if up else (ph > ep):
            c = single_step(b.left, i, up)
            return None if c is None else TensorElement(c, b.right)
        c = single_step(b.right, i, up)
        return None if c is None else TensorElement(b.left, c)
    if isinstance(b, DualElement):
        c = single_step(b.inner, i, not up)
        return None if c is None else DualElement(c)
    if isinstance(b, ModElement):
        t = single_step(TensorElement(TensorElement(b.b1, TElement(b.lam)), b.b2), i, up)
        return None if t is None else ModElement(t.left.left, b.lam, t.right)
    if isinstance(b, HalfPath):
        return stepwise_power(b, i, -1 if up else 1)
    if isinstance(b, SeqElement):
        return sequence_step(b, i, up)
    if isinstance(b, LimitEntry):  # e_1 and f_0 decrement, e_0 and f_1 increment
        return LimitEntry(b.n - 1 if (i == 1) == up else b.n + 1)
    if isinstance(b, BiElement):  # e_i (n)_i = (n + 1)_i, f_i (n)_i = (n - 1)_i
        return BiElement(b.color, b.n + (1 if up else -1)) if i == b.color else None
    if isinstance(b, (TElement, EndMarker)):
        return None
    raise TypeError(f"no single step for {type(b).__name__}")


def single_steps(b, i: int, n: int):
    """f_i^n for n >= 0 and e_i^(-n) for n < 0 one single_step at a time;
    None as soon as a step is undefined."""
    for _ in range(abs(n)):
        b = single_step(b, i, n < 0)
        if b is None:
            return None
    return b


def star_from(b: HalfPath, color: int) -> HalfPath:
    """b* by peeling from the given color (star_binf peels from color 1)."""
    return seq_to_path(SeqElement(color, tuple(k for _, k in peel(b, color))))


def reference_check_axioms(elements) -> list[str]:
    """check_axioms by its definition, element by element: each end of an
    arrow applies both operators and reads the weight, eps and phi of both
    elements again.  Same messages in the same order as check_axioms."""
    problems: list[str] = []
    for b in elements:
        w, k = b.wt(), b.key()
        for i in COLORS:
            if b.pairing(i) != w.pairing(i):
                problems.append(f"{b!r}: pairing({i}) != <h_{i}, wt>")
            ep, ph = b.eps(i), b.phi(i)
            if (ep == NEG_INF) != (ph == NEG_INF):
                problems.append(f"{b!r}: eps/phi -inf mismatch for color {i}")
                continue
            if ep != NEG_INF and ph != ep + w.pairing(i):
                problems.append(f"{b!r}: phi_{i} != eps_{i} + <h_{i}, wt>")
            up = b.e(i)
            if up is not None:
                if up.wt() != w + simple_root(i):
                    problems.append(f"{b!r}: wt(e_{i} b) != wt(b) + alpha_{i}")
                if up.eps(i) != ep - 1 or up.phi(i) != ph + 1:
                    problems.append(f"{b!r}: eps/phi step wrong under e_{i}")
                down = up.f(i)
                if down is None or down.key() != k:
                    problems.append(f"{b!r}: f_{i} e_{i} b != b")
            down = b.f(i)
            if down is not None:
                if down.wt() != w - simple_root(i):
                    problems.append(f"{b!r}: wt(f_{i} b) != wt(b) - alpha_{i}")
                if down.eps(i) != ep + 1 or down.phi(i) != ph - 1:
                    problems.append(f"{b!r}: eps/phi step wrong under f_{i}")
                up2 = down.e(i)
                if up2 is None or up2.key() != k:
                    problems.append(f"{b!r}: e_{i} f_{i} b != b")
    return problems
