"""Command-line interface.

Subcommands: apply, star, walls, graph, extremal, bmax, pw-verify,
oracle-check.  Elements are read as JSON from --file or stdin.  Operator
words are whitespace-separated tokens e0, e1, f0, f1 (plain) and E0, E1,
F0, F1 (starred), applied left to right.

Exit codes: 0 all checks pass / result produced; 1 a check failed; 2 a
bounded search was inconclusive and no check failed.  pw-verify takes its
verdict from the one record peterweyl.pw_verify returns: 1 when it failed,
else 0 when it is ok, else 2.  64 malformed or
invalid element JSON, including JSON nested too deeply for the parser's
recursion (about 1,000 levels); 65
precondition violation, including command-line usage errors, negative
bounds, a --lambda of more than two components, a weight given as an
element, a sequence outside the image, an element over the input limits,
and an oracle-check --support above MAX_SPAN.

Input limits: an element may reach at most MAX_SPAN = 256 positions out
from 0 (a half-path's farthest entry, a level path's window, a sequence's
length) and hold no entry above MAX_ENTRY = 64 in absolute value (a level
path's m and a marker's L0 coefficient count as entries).  The star and
the Weyl operators grow with both: star on a path with one entry 100,000
positions out was still running after two minutes.  oracle-check's random
paths reach --support positions out, so the same MAX_SPAN bounds it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import serialize
from .core import bfs_component
from .elementary import oracle_mismatches, oracle_word
from .extremal import bmax_contains, bmax_seeds, enum_bmax, extremal_cert
from .halfpath import HalfPath, apply_word, left_path, u_inf
from .levelpath import LevelPath, ModElement, lp_join, lp_split
from .peterweyl import pw_verify
from .seqreal import SeqElement, image_check, path_to_seq
from .star import star_binf, star_bminf, star_mod, starred_e, starred_f
from .weights import Weight, classical

EXIT_OK, EXIT_FAIL, EXIT_INCONCLUSIVE = 0, 1, 2
EXIT_BADJSON, EXIT_PRECONDITION = 64, 65
MAX_SPAN, MAX_ENTRY = 256, 64


class CliError(Exception):
    def __init__(self, code: int, message: str):
        Exception.__init__(self, message)
        self.code = code


def _read_element(args):
    try:
        if args.file:
            with open(args.file, encoding="utf-8") as f:
                text = f.read()
        else:
            text = sys.stdin.read()
        elt = serialize.loads(text)
    except OSError as exc:
        raise CliError(EXIT_PRECONDITION, f"cannot read input: {exc}")
    except (json.JSONDecodeError, ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        # ValueError covers a UnicodeDecodeError from either source
        raise CliError(EXIT_BADJSON, f"malformed element JSON: {exc}")
    if isinstance(elt, Weight):
        raise CliError(EXIT_PRECONDITION, "a weight is not a crystal element")
    span, entry = _extent(elt)
    if span > MAX_SPAN or entry > MAX_ENTRY:
        raise CliError(EXIT_PRECONDITION,
                       f"element reaches {span} positions out with entries up to {entry}; "
                       f"the limits are {MAX_SPAN} and {MAX_ENTRY}")
    if isinstance(elt, SeqElement) and not image_check(elt):
        raise CliError(EXIT_PRECONDITION,
                       "sequence lies outside the image of the limit crystal")
    return elt


def _extent(elt) -> tuple[int, int]:
    """How many positions out from 0 an element reaches, and its largest
    entry in absolute value (see the input limits above)."""
    if isinstance(elt, ModElement):
        (s1, e1), (s2, e2) = _extent(elt.b1), _extent(elt.b2)
        return max(s1, s2), max(e1, e2, abs(elt.lam.a0))
    if isinstance(elt, HalfPath):
        if not elt.entries:
            return 0, 0
        far = -elt.entries[0][0] if elt.side == "left" else elt.entries[-1][0] + 1
        return far, max(abs(v) for _, v in elt.entries)
    if isinstance(elt, LevelPath):
        a, b = elt.window()
        return b - a + 1, max([abs(elt.m)] + [abs(v) for _, v in elt.entries])
    return len(elt.a), max(elt.a, default=0)  # a sequence


def _count(text: str) -> int:
    """argparse type of the bounds --depth, --c-bound, --word-bound,
    --support, --entry-bound and --samples."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def _parse_lambda(text: str) -> Weight:
    try:
        m, l = map(int, text.split(",") if "," in text else (text, 0))
    except ValueError:
        raise CliError(EXIT_PRECONDITION, f"bad --lambda value: {text!r}")
    return classical(m, l)


def _as_mod(elt) -> ModElement:
    if isinstance(elt, ModElement):
        return elt
    if isinstance(elt, LevelPath):
        return lp_split(elt)
    raise CliError(EXIT_PRECONDITION,
                   f"{type(elt).__name__} does not support this operation")


_PLAIN = {"e0": ("e", 0), "e1": ("e", 1), "f0": ("f", 0), "f1": ("f", 1)}
_STARRED = {"E0": ("e", 0), "E1": ("e", 1), "F0": ("f", 0), "F1": ("f", 1)}


def cmd_apply(args) -> int:
    elt = _read_element(args)
    was_level_path = isinstance(elt, LevelPath)
    tokens = args.ops.split()
    needs_star = any(t in _STARRED for t in tokens)
    if needs_star or was_level_path:
        try:
            elt = _as_mod(elt)
        except CliError:
            raise CliError(EXIT_PRECONDITION,
                           "starred operators need a level path or three-factor element")
    for tok in tokens:
        if tok in _PLAIN:
            kind, i = _PLAIN[tok]
            elt = elt.e(i) if kind == "e" else elt.f(i)
        elif tok in _STARRED:
            kind, i = _STARRED[tok]
            elt = starred_e(elt, i) if kind == "e" else starred_f(elt, i)
        else:
            raise CliError(EXIT_PRECONDITION, f"unknown operator token {tok!r}")
        if elt is None:
            print("0")
            return EXIT_OK
    if was_level_path and isinstance(elt, ModElement):
        elt = lp_join(elt)
    print(serialize.dumps(elt))
    return EXIT_OK


def cmd_star(args) -> int:
    elt = _read_element(args)
    if isinstance(elt, HalfPath):
        out = star_binf(elt) if elt.side == "left" else star_bminf(elt)
    elif isinstance(elt, SeqElement):
        # the entries are the string of the star image from first_color
        word = [(elt.color(p), v) for p, v in enumerate(elt.a, start=1)]
        out = path_to_seq(apply_word(u_inf(), reversed(word)), elt.first_color)
    elif isinstance(elt, LevelPath):
        out = lp_join(star_mod(lp_split(elt)))
    else:
        out = star_mod(elt)
    print(serialize.dumps(out))
    return EXIT_OK


def cmd_walls(args) -> int:
    elt = _read_element(args)
    if not isinstance(elt, (HalfPath, LevelPath, ModElement)):
        raise CliError(EXIT_PRECONDITION, "walls needs a path element")
    walls = elt.walls()
    sign = elt.wall_sign()
    out = {
        "walls": [[k, s] for k, s in walls],
        "count": sum(abs(s) for _, s in walls),
        "sign": sign,
    }
    if isinstance(elt, HalfPath) and elt.side == "left":
        out["domains"] = [[start, length] for start, length in elt.domains()]
    print(json.dumps(out))
    return EXIT_OK


def cmd_graph(args) -> int:
    elt = _read_element(args)
    if isinstance(elt, LevelPath):
        elt = lp_split(elt)
    graph = bfs_component(elt, args.depth)
    if args.format == "dot":
        print(graph.to_dot())
    elif args.format == "text":
        for nid in sorted(graph.nodes):
            w = graph.nodes[nid].wt()
            print(f"{nid} depth={graph.depth[nid]} wt=({w.a0},{w.a1},{w.d})")
        for src, dst, i in sorted(graph.edges):
            print(f"{src} -f{i}-> {dst}")
    else:
        print(graph.to_json())
    return EXIT_OK


def cmd_extremal(args) -> int:
    """The bounded S-walk's verdict on the element: true means that no
    alternating S-word of at most --word-bound letters is a witness, so
    some elements whose walls have mixed signs and that are not extremal
    read true at short bounds.  One such element with marker 6(L0 - L1)
    + delta reads true at the default 6 and false at 7 (witness
    [0, 1, 0, 1, 0, 1, 0])."""
    elt = _as_mod(_read_element(args))
    cert = extremal_cert(elt, args.word_bound)
    print(json.dumps({
        "extremal": cert.extremal,
        "word_bound": cert.max_len,
        "witness": cert.witness,
    }))
    return EXIT_OK if cert.extremal else EXIT_FAIL


def cmd_bmax(args) -> int:
    lam = _parse_lambda(args.lam)
    if args.contains:
        elt = _as_mod(_read_element(args))
        member = bmax_contains(lam, elt, args.word_bound)
        print(json.dumps({"contains": member}))
        return EXIT_OK if member else EXIT_FAIL
    fam = enum_bmax(lam, args.c_bound, args.depth)
    seeds = bmax_seeds(lam, args.c_bound)
    print(json.dumps({"size": len(fam), "seeds": [serialize.encode(s) for s in seeds]}))
    return EXIT_OK


def cmd_pw_verify(args) -> int:
    lam = _parse_lambda(args.lam)
    rep = pw_verify(lam, args.depth, args.word_bound)
    payload = {
        "lambda": serialize.encode_weight(lam),
        "C1": rep.c1,
        "C2": rep.c2,
        "C3": rep.c3,
        "bmax_size": rep.bmax_size,
        "dual_size": rep.dual_size,
        "pair_count": rep.pair_count,
        "product_ok": rep.product_ok,
        "dual_characterization_ok": rep.dual_characterization_ok,
        "decompose_total": rep.pair_count,  # the report decomposes every pair
        "decompose_inconclusive": rep.decompose_inconclusive,
        "violations": rep.violations,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_FAIL if rep.failed else EXIT_OK if rep.ok else EXIT_INCONCLUSIVE


def cmd_oracle_check(args) -> int:
    if args.support > MAX_SPAN:
        raise CliError(EXIT_PRECONDITION,
                       f"--support {args.support} is over the limit of {MAX_SPAN} positions")
    seed = args.seed
    if args.seed_file:
        try:
            with open(args.seed_file, encoding="utf-8") as f:
                seed = int(f.read().strip())
        except (OSError, ValueError) as exc:
            raise CliError(EXIT_PRECONDITION, f"bad seed file: {exc}")
    rng = random.Random(seed)
    width = args.support + 2
    failures = 0
    checked = 0
    for _ in range(args.samples):
        entries = {-k: rng.randint(-args.entry_bound, args.entry_bound)
                   for k in range(1, args.support + 1)}
        b = left_path(entries)
        word = oracle_word(b.as_dict(), width)
        for i in (0, 1):
            checked += 1
            failures += oracle_mismatches(b, word, i)
    print(json.dumps({"checked": checked, "failures": failures}))
    return EXIT_OK if failures == 0 else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_PRECONDITION, since argparse's own code
    2 means EXIT_INCONCLUSIVE here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(EXIT_PRECONDITION, f"{self.prog}: error: {message}")


def _glue_lambda(argv: list[str]) -> list[str]:
    """Join '--lambda VALUE' into '--lambda=VALUE', so that a negative m as
    in '--lambda -3,0' is not taken for an option."""
    out = []
    args = iter(argv)
    for arg in args:
        out.append(f"{arg}={next(args, '')}" if arg == "--lambda" else arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crystalpaths")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--file", help="element JSON file (default: stdin)")

    p = sub.add_parser("apply", help="apply an operator word")
    common(p)
    p.add_argument("--ops", required=True, help="e.g. 'f0 f1 E0'")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("star", help="star involution")
    common(p)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("walls", help="wall/domain structure")
    common(p)
    p.set_defaults(func=cmd_walls)

    p = sub.add_parser("graph", help="truncated component graph")
    common(p)
    p.add_argument("--depth", type=_count, default=4)
    p.add_argument("--format", choices=("json", "text", "dot"), default="json")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("extremal", help="bounded extremality check")
    common(p)
    p.add_argument("--word-bound", type=_count, default=6)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("bmax", help="B^max enumeration / membership")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True, help="m,l")
    p.add_argument("--c-bound", type=_count, default=1)
    p.add_argument("--depth", type=_count, default=3)
    p.add_argument("--word-bound", type=_count, default=4)
    p.add_argument("--contains", action="store_true")
    p.set_defaults(func=cmd_bmax)

    p = sub.add_parser("pw-verify", help="Peter-Weyl slice verification")
    p.add_argument("--lambda", dest="lam", required=True, help="m,l")
    p.add_argument("--depth", type=_count, default=5,
                   help="BFS depth of C1-C3 (of the slice report, at most 3)")
    p.add_argument("--word-bound", type=_count, default=8,
                   help="C3's Weyl-orbit word length")
    p.set_defaults(func=cmd_pw_verify)

    p = sub.add_parser("oracle-check", help="signature rule vs tensor oracle")
    p.add_argument("--support", type=_count, default=4)
    p.add_argument("--entry-bound", type=_count, default=3)
    p.add_argument("--samples", type=_count, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seed-file", help="file holding an integer RNG seed")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_glue_lambda(argv))
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
