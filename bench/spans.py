"""Runtime tracing of the crystalpaths layers from outside the library.

``Tracer.install`` wraps every public function and method of the eleven
library modules, plus the dunders that count work (half-path, sequence and
level-path construction, weight arithmetic).  A module function is rebound
under every name that refers to it in any ``crystalpaths`` namespace; a
method is replaced on its class.  ``uninstall`` puts every original object
back, and ``leftovers`` lists any name that is not the original again.

Each module is a layer.  A call into a layer from another layer, or from
the benchmark, opens a span; a call within the same layer is only counted.
A span records (id, layer, start, end, parent id, call id), where the call
id is the index of the benchmark's top-level call.  A layer's self time is
the time during which one of its spans is the innermost open span.  The
``weights`` and ``elementary`` layers are counted but not spanned: their
calls are too small to time usefully, so their time stays with the caller.
Boundary values that need library calls to read (the power of a Weyl
operator) are read with counting paused, inside a span of the pseudo-layer
``trace``, so that time is not charged to any library layer.

Spans are kept in memory up to SPAN_CAP (later ones are counted as
dropped) and written out by ``write``.  Self times and counters are
accumulated for every span, kept or dropped.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("weights", "core", "elementary", "halfpath", "seqreal", "levelpath",
          "star", "extremal", "peterweyl", "serialize", "cli")
COUNT_ONLY = frozenset({"weights", "elementary"})
BOUNDARY = "trace"
COUNTED_DUNDERS = frozenset({"__post_init__", "__add__", "__sub__", "__neg__",
                             "__mul__", "__rmul__"})
OPS = ("e", "f", "eps", "phi", "wt")
LONG_INPUT = 24  # letters; the threshold of the long-input shares
SPAN_CAP = 100_000  # spans kept for writing out; later ones are only counted


def letters_of(b) -> int:
    """Letters of a half-path: its span from the outermost nonzero entry to
    the origin."""
    if not b.entries:
        return 0
    return -b.entries[0][0] if b.side == "left" else b.entries[-1][0] + 1


# -- boundary readers: (tracer, args, result, pre-state) -> None ------------

def _add(key, value_of):
    def post(tracer, args, result, state):
        tracer.values[key] += value_of(args, result, state)
    return post


def _weyl_power(tracer, args):
    e, i = args[0], args[1]
    return abs(e.wt().pairing(i))


def _star_arg(tracer, args, result, state):
    tracer.star_letters.append(letters_of(args[0]))


def _decompose_result(tracer, args, result, state):
    if result is not None:
        tracer.values["peterweyl.decompose_found"] += 1
        tracer.values["peterweyl.decompose_word"] += len(result.word)


_PRE = {"extremal.weyl_op": _weyl_power}
_POST = {
    "halfpath.HalfPath.__post_init__": _add("halfpath.entries", lambda a, r, s: len(a[0].entries)),
    "seqreal.seq_to_path": _add("seqreal.e_steps", lambda a, r, s: sum(a[0].a)),
    "seqreal.path_to_seq": _add("seqreal.e_steps", lambda a, r, s: sum(r.a)),
    "star.star_binf": _star_arg,
    "core.bfs_component": _add("core.bfs_nodes", lambda a, r, s: len(r.nodes)),
    "core.check_axioms": _add("core.axiom_elements", lambda a, r, s: len(a[0])),
    "extremal.weyl_op": _add("extremal.weyl_steps", lambda a, r, s: s),
    "extremal.extremal_cert": _add("extremal.extremal_found", lambda a, r, s: int(r.extremal)),
    "peterweyl.decompose": _decompose_result,
    "serialize.dumps": _add("serialize.bytes", lambda a, r, s: len(r)),
    "serialize.loads": _add("serialize.bytes", lambda a, r, s: len(a[0])),
}


def _namespaces() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == "crystalpaths" or n.startswith("crystalpaths.")]


class Tracer:
    def __init__(self):
        self.layers = LAYERS + (BOUNDARY,)
        self.self_s = [0.0] * len(self.layers)
        self.root_s = 0.0              # summed duration of spans with no parent
        self.calls: dict[str, list[int]] = {}   # name -> [calls, layer entries]
        self.values: defaultdict[str, int] = defaultdict(int)
        self.star_letters: list[int] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.call_id = -1
        self.paused = False
        self._stack: list[list] = []    # open spans: [layer, child time, id]
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, name, original)
        self._installed = False
        self._cached: dict[str, object] = {}         # name -> lru_cache object
        self._cache_base: dict[str, list[int]] = {}  # name -> [hits, misses]

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._installed = True
        namespaces = _namespaces()
        for layer in LAYERS:
            module = sys.modules[f"crystalpaths.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    for attr, member in list(vars(obj).items()):
                        if isinstance(member, types.FunctionType) and (
                                not attr.startswith("_") or attr in COUNTED_DUNDERS):
                            self._patch(obj, attr, member,
                                        self._wrap(member, layer, f"{layer}.{obj.__name__}.{attr}"))
                elif callable(obj):
                    wrapper = self._wrap(obj, layer, f"{layer}.{name}")
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, alias, obj, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        for key, base in self._cache_base.items():
            info = self._cached[key].cache_info()
            base[0] += info.hits
            base[1] += info.misses
        self._installed = False

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def leftovers(self) -> list[str]:
        """Every patched name not bound to its original object, and every
        wrapper still reachable from a crystalpaths namespace or class."""
        bad = [f"{getattr(o, '__name__', o)}.{n}" for o, n, orig in self._patches
               if vars(o).get(n) is not orig]
        for ns in _namespaces():
            for name, value in vars(ns).items():
                owners = [(name, value)]
                if isinstance(value, type):
                    owners += [(f"{name}.{a}", m) for a, m in vars(value).items()]
                bad += [f"{ns.__name__}.{n}" for n, v in owners
                        if getattr(v, "_bench_wrapper", False)]
        return bad

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, orig, layer: str, name: str):
        counter = self.calls.setdefault(name, [0, 0])
        tracer = self
        if layer in COUNT_ONLY:
            def wrapper(*args, **kwargs):
                if not tracer.paused:
                    counter[0] += 1
                return orig(*args, **kwargs)
        else:
            index = self.layers.index(layer)
            stack = self._stack
            pre, post = _PRE.get(name), _POST.get(name)

            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return orig(*args, **kwargs)
                counter[0] += 1
                state = tracer._boundary(pre, args) if pre is not None else None
                if stack and stack[-1][0] == index:
                    result = orig(*args, **kwargs)
                else:
                    counter[1] += 1
                    result = tracer._span(index, orig, args, kwargs)
                if post is not None:
                    post(tracer, args, result, state)
                return result
        functools.update_wrapper(wrapper, orig)
        wrapper._bench_wrapper = True
        if hasattr(orig, "cache_clear"):
            # the lru_cache object itself answers every call; clearing through
            # the wrapper banks the hit and miss counts the clear would reset
            info = orig.cache_info()
            self._cache_base[name] = [-info.hits, -info.misses]
            self._cached[name] = orig
            wrapper.cache_info = orig.cache_info
            wrapper.cache_clear = lambda: self._bank_and_clear(name)
        return wrapper

    def _bank_and_clear(self, name: str) -> None:
        orig = self._cached[name]
        info = orig.cache_info()
        self._cache_base[name][0] += info.hits
        self._cache_base[name][1] += info.misses
        orig.cache_clear()

    def _span(self, index: int, orig, args, kwargs):
        stack = self._stack
        sid = self._next_id
        self._next_id = sid + 1
        parent = stack[-1][2] if stack else -1
        frame = [index, 0.0, sid]
        stack.append(frame)
        start = perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[index] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            else:
                self.root_s += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, index, start, end, parent, self.call_id))
            else:
                self.dropped += 1

    def _boundary(self, reader, args):
        self.paused = True
        try:
            return self._span(len(LAYERS), reader, (self, args), {})
        finally:
            self.paused = False

    # -- results ----------------------------------------------------------------

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) of the star_binf cache over the traced period;
        only valid after uninstall."""
        hits, misses = self._cache_base.get("star.star_binf", (0, 0))
        return hits, misses

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  A ratio whose base
        is zero reads 0."""
        def calls(*names):
            return sum(self.calls.get(n, (0, 0))[0] for n in names)

        def entries(*names):
            return sum(self.calls.get(n, (0, 0))[1] for n in names)

        def ops(layer, cls):
            return calls(*(f"{layer}.{cls}.{op}" for op in OPS))

        def layer_calls(layer):
            return sum(c[0] for n, c in self.calls.items() if n.startswith(layer + "."))

        def ratio(num, den):
            return num / den if den else 0.0

        v = self.values
        built = calls("halfpath.HalfPath.__post_init__")
        binf = calls("star.star_binf")
        hits, misses = self.cache_counts()
        checks = calls("extremal.extremal_cert")
        decomposes = calls("peterweyl.decompose")
        found = v["peterweyl.decompose_found"]
        lens = self.star_letters
        out = {
            "halfpath.ops": (ops("halfpath", "HalfPath"), "count"),
            "halfpath.flips": (calls("halfpath.HalfPath.flip"), "count"),
            "halfpath.paths_built": (built, "count"),
            "halfpath.mean_entries": (ratio(v["halfpath.entries"], built), "entries"),
            "seqreal.ops": (ops("seqreal", "SeqElement"), "count"),
            "seqreal.e_steps": (v["seqreal.e_steps"], "count"),
            "seqreal.conversions": (calls("seqreal.seq_to_path", "seqreal.path_to_seq"), "count"),
            "star.binf_calls": (binf, "count"),
            "star.cache_hits": (hits, "count"),
            "star.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
            "star.mod_calls": (calls("star.star_mod"), "count"),
            "star.starred_ops": (calls("star.starred_e", "star.starred_f",
                                       "star.starred_eps", "star.starred_phi"), "count"),
            "star.arg_letters_p50": (statistics.median(lens) if lens else 0, "letters"),
            "star.arg_letters_max": (max(lens, default=0), "letters"),
            "star.arg_share_ge24": (ratio(sum(n >= LONG_INPUT for n in lens), len(lens)), "ratio"),
            "core.tensor_ops": (ops("core", "TensorElement"), "count"),
            "core.bfs_calls": (calls("core.bfs_component"), "count"),
            "core.bfs_nodes": (v["core.bfs_nodes"], "count"),
            "core.node_ids": (calls("core.node_id"), "count"),
            "core.axiom_elements": (v["core.axiom_elements"], "count"),
            "levelpath.mod_ops": (ops("levelpath", "ModElement"), "count"),
            "levelpath.split_join": (calls("levelpath.lp_split", "levelpath.lp_join"), "count"),
            "extremal.weyl_ops": (calls("extremal.weyl_op"), "count"),
            "extremal.weyl_steps": (v["extremal.weyl_steps"], "count"),
            "extremal.extremal_checks": (checks, "count"),
            "extremal.extremal_ratio": (ratio(v["extremal.extremal_found"], checks), "ratio"),
            "peterweyl.decompose_calls": (decomposes, "count"),
            "peterweyl.decompose_found": (found, "count"),
            "peterweyl.decompose_found_ratio": (ratio(found, decomposes), "ratio"),
            "peterweyl.decompose_mean_word": (ratio(v["peterweyl.decompose_word"], found), "ops"),
            "serialize.encodes": (entries("serialize.dumps", "serialize.encode",
                                          "serialize.encode_weight"), "count"),
            "serialize.decodes": (entries("serialize.loads", "serialize.decode"), "count"),
            "serialize.bytes": (v["serialize.bytes"], "bytes"),
            "cli.calls": (calls("cli.main"), "count"),
            "elementary.ops": (layer_calls("elementary"), "count"),
            "weights.ops": (layer_calls("weights"), "count"),
        }
        for index, layer in enumerate(self.layers):
            if layer not in COUNT_ONLY:
                out[f"{layer}.self_s"] = (self.self_s[index], "s")
        out["trace.spans"] = (self._next_id, "count")
        out["trace.spans_dropped"] = (self.dropped, "count")
        return out

    def write(self, path) -> None:
        payload = {"layers": list(self.layers),
                   "fields": ["id", "layer", "start", "end", "parent", "call"],
                   "spans": self.spans, "dropped": self.dropped}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
