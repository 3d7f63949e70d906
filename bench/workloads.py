"""The three benchmark workloads.

Each workload turns a seed into one pass: a fixed list of labelled call
inputs.  ``call`` makes one top-level call into the library and runs the
invariant checks that belong to it.  It returns a ``CallResult`` whose
``record`` the correctness gate compares with the value recorded in
``expected.json`` for that label.

The library is always reached through module attributes (``star.star_binf``,
never a name imported into this module), so the tracer in ``spans.py`` sees
every call the workloads make.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass, field

from crystalpaths import (cli, core, extremal, halfpath, levelpath, seqreal,
                          serialize, star, weights)
from spans import letters_of


@dataclass
class CallResult:
    record: object            # JSON value compared with expected.json
    work: int                 # units of work done by the call
    problems: list[str] = field(default_factory=list)


def _digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:8]


def depth(b: halfpath.HalfPath) -> int:
    """Number of lowering steps from the generator to a left path b: with
    wt(b) = -(n0*alpha_0 + n1*alpha_1), n0 = -d and n1 = n0 + a0/2."""
    w = b.wt()
    return -2 * w.d + w.a0 // 2


class PwVerify:
    """The paper's headline check: ``crystalpaths pw-verify`` in-process over
    a fixed list of weights, each call starting with a cold star cache as a
    fresh CLI process would.  The seed only shuffles the call order."""

    name = "pw_verify"
    work_unit = "slice pairs verified"
    LAMBDAS = ((1, 0), (2, 0), (3, 0), (4, 0), (-3, 0), (2, 1), (-4, 1))
    fixed_labels = tuple(f"{m},{l}" for m, l in LAMBDAS)
    # A fixed pass count keeps the call mix, and so the rank that
    # call_tail_ms reads, the same from run to run.
    min_passes = 4

    def inputs(self, seed: int) -> list:
        items = [(f"{m},{l}", (m, l)) for m, l in self.LAMBDAS]
        random.Random(seed).shuffle(items)
        return items

    def warm_up(self) -> None:
        self.call((1, 0))

    def letters(self, inp) -> int:
        return 0  # the input is a weight, not a path

    def call(self, lam) -> CallResult:
        m, l = lam
        star.star_binf.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["pw-verify", f"--lambda={m},{l}"])
        payload = json.loads(out.getvalue())
        problems = [] if code == 0 else [f"pw-verify exited with {code}"]
        return CallResult(payload, payload["pair_count"], problems)


class StarLong:
    """Star involution on long, distinct half-paths with a cold cache.

    For each length in LENGTHS a pass holds ten random left paths, four
    random right paths (starred through ``star_bminf``) and four
    uniform-wall left paths built by ``block_transform`` of monotone
    sequences, so the length mix and the kind shares are the same for every
    seed.  Star's cost grows with the path's depth (the number of lowering
    steps from the generator), which varies by a factor of two between
    random paths of one length.  Each random path is therefore the one
    closest to the typical depth of its length among up to DEPTH_DRAWS
    seeded candidates, so that seeds change the letters but hardly the
    amount of work."""

    name = "star_long"
    work_unit = "paths starred"
    LENGTHS = (8, 12, 16, 20, 24, 28, 32)
    # With 4 uniform-wall paths (all cheaper than random 16-letter paths) and
    # 14 random paths per length, the median call sits at the centre of the
    # 16-letter group, which keeps call_p50_ms steady from seed to seed.
    KINDS = ("left",) * 10 + ("right",) * 4 + ("uniform",) * 4
    DEPTH_DRAWS = 64
    fixed_labels = ()
    min_passes = 1

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        items = []
        for length in self.LENGTHS:
            target = self._typical_depth(length)
            for j, kind in enumerate(self.KINDS):
                path = self._path(rng, kind, length, target)
                items.append((f"L{length}.{j}", (kind, path)))
        rng.shuffle(items)
        return items

    def _path(self, rng: random.Random, kind: str, length: int,
              target: int) -> halfpath.HalfPath:
        if kind == "uniform":
            while True:
                a = sorted((rng.randint(1, 3) for _ in range(length)), reverse=True)
                b = seqreal.block_transform(seqreal.SeqElement(rng.randint(0, 1), tuple(a)))
                if b.wall_sign() is not None:
                    return b
        best = None
        for _ in range(self.DEPTH_DRAWS):
            b = self._random_path(rng, length)
            miss = abs(depth(b) - target)
            if best is None or miss < best[0]:
                best = (miss, b)
            if miss <= target // 50:
                break
        b = best[1]
        return b.flip() if kind == "right" else b

    @staticmethod
    def _random_path(rng: random.Random, length: int) -> halfpath.HalfPath:
        word = [rng.choice((-3, -2, -1, 1, 2, 3))]
        word += [rng.randint(-3, 3) for _ in range(length - 1)]
        return halfpath.from_word(word)

    def _typical_depth(self, length: int) -> int:
        """Median depth of 41 random paths of this length, from a fixed seed."""
        rng = random.Random(length)
        return statistics.median_low(depth(self._random_path(rng, length)) for _ in range(41))

    def warm_up(self) -> None:
        self.call(("left", halfpath.from_word([1, -2, 3, 0, -1, 2])))

    def letters(self, inp) -> int:
        return letters_of(inp[1])

    def call(self, inp) -> CallResult:
        kind, b = inp
        star.star_binf.cache_clear()
        op = star.star_bminf if kind == "right" else star.star_binf
        image = op(b)
        problems = []
        if op(image) != b:
            problems.append("star(star(b)) != b")
        if image.wt() != b.wt():
            problems.append("wt(star(b)) != wt(b)")
        if kind == "uniform" and star.star_half_closed(b) != image:
            problems.append("star differs from star_half_closed")
        return CallResult(_digest([serialize.dumps(image)]), 1, problems)


class ComponentBfs:
    """Broad, shallow component enumeration on short elements.

    Fixed calls: the B(inf) component to depth 10 in the path and the
    sequence realization (checked isomorphic), and enum_bmax at m = 7 and
    m = -7.  These three are the slowest calls of a pass, so call_tail_ms
    reads inside their group rather than at its edge.
    Seeded calls: components to depth 8 of random-walk roots in the
    ModElement crystal, four walks from u_lambda for each m in ROOT_MS (the
    component size depends on |m| alone, so the size mix is the same for
    every seed).  Every node of every call is checked against the
    crystal axioms and round-tripped through serialize."""

    name = "component_bfs"
    work_unit = "component nodes enumerated"
    BINF_DEPTH = 10
    BMAX_MS = (7, -7)
    ROOT_MS = (-3, -2, -1, 1, 2, 3)
    WALKS_PER_M = 4
    ROOT_DEPTH = 8
    fixed_labels = ("binf",) + tuple(f"bmax{m}" for m in BMAX_MS)
    min_passes = 1

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        items = [("binf", ("binf", None))]
        items += [(f"bmax{m}", ("bmax", m)) for m in self.BMAX_MS]
        for k in range(self.WALKS_PER_M * len(self.ROOT_MS)):
            m = self.ROOT_MS[k % len(self.ROOT_MS)]
            items.append((f"root{k:02d}", ("root", self._root(rng, m))))
        rng.shuffle(items)
        return items

    @staticmethod
    def _root(rng: random.Random, m: int) -> levelpath.ModElement:
        cur = levelpath.u_lambda(weights.classical(m, rng.randint(-2, 2)))
        for _ in range(rng.randint(4, 10)):
            moves = [c for i in (0, 1) for c in (cur.e(i), cur.f(i)) if c is not None]
            cur = rng.choice(moves)
        return cur

    def warm_up(self) -> None:
        self.call(("root", levelpath.u_lambda(weights.classical(1, 0))))

    def letters(self, inp) -> int:
        kind, root = inp
        return letters_of(root.b1) + letters_of(root.b2) if kind == "root" else 0

    def call(self, inp) -> CallResult:
        kind, arg = inp
        if kind == "binf":
            g_path = core.bfs_component(halfpath.u_inf(), self.BINF_DEPTH)
            g_seq = core.bfs_component(seqreal.seq_generator(0), self.BINF_DEPTH)
            path_problems, path_dump = self._check_graph(g_path)
            seq_problems, seq_dump = self._check_graph(g_seq)
            problems = path_problems + seq_problems
            if not core.graphs_isomorphic(g_path, g_seq):
                problems.append("path and sequence realizations differ")
            record = {"path": [len(g_path.nodes), len(g_path.edges), path_dump],
                      "seq": [len(g_seq.nodes), len(g_seq.edges), seq_dump]}
            return CallResult(record, len(g_path.nodes) + len(g_seq.nodes), problems)
        if kind == "bmax":
            family = extremal.enum_bmax(weights.classical(arg, 0), 1, 3)
            problems, dump = self._check_nodes(list(family.values()))
            return CallResult([len(family), dump], len(family), problems)
        graph = core.bfs_component(arg, self.ROOT_DEPTH)
        problems, dump = self._check_graph(graph)
        record = [len(graph.nodes), len(graph.edges), dump]
        return CallResult(record, len(graph.nodes), problems)

    @staticmethod
    def _check_nodes(nodes: list) -> tuple[list[str], str]:
        """Axiom violations and serialize round-trip failures of the nodes,
        and a digest of their sorted serialized forms."""
        problems = core.check_axioms(nodes)
        texts = []
        for b in nodes:
            text = serialize.dumps(b)
            if serialize.loads(text).key() != b.key():
                problems.append(f"serialize round trip changed {text}")
            texts.append(text)
        return problems, _digest(sorted(texts))

    def _check_graph(self, graph: core.ComponentGraph) -> tuple[list[str], str]:
        problems, dump = self._check_nodes(list(graph.nodes.values()))
        exported = json.loads(graph.to_json())
        if (len(exported["nodes"]), len(exported["edges"])) != (len(graph.nodes), len(graph.edges)):
            problems.append("to_json lost nodes or edges")
        return problems, dump


WORKLOADS = {w.name: w for w in (PwVerify(), StarLong(), ComponentBfs())}
