"""Record the expected output of every benchmark call into expected.json.

    python3 bench/record.py --seeds 32

Seed-independent calls (the pw-verify weights, the B(inf) and B^max
components) are recorded once; seeded calls are recorded for seeds
0..N-1.  For any other seed the gate still runs every call's own checks.
expected.json is the correctness gate of later changes: re-record only
when the benchmark's inputs change, never to make a failing check pass.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import workloads

    blank = {name: {"fixed": {}, "seeds": {}} for name in run.NAMES}
    table = {}
    for name in run.NAMES:
        wl = workloads.WORKLOADS[name]
        entry = {"fixed": {}, "seeds": {}}
        seeds = range(args.seeds) if len(wl.fixed_labels) < len(wl.inputs(0)) else [0]
        for seed in seeds:
            res = run.run_pass(wl, wl.inputs(seed), blank, seed, calibrate=False)
            if res.failures:
                for label, problems in res.failures:
                    print(f"{name} seed {seed} {label}: {problems}", file=sys.stderr)
                return 1
            for label, record in res.records.items():
                if label in wl.fixed_labels:
                    entry["fixed"][label] = record
                else:
                    entry["seeds"].setdefault(str(seed), {})[label] = record
            print(f"{name} seed {seed}: {len(res.records)} calls in {res.wall:.1f} s",
                  file=sys.stderr)
        table[name] = entry
    run.EXPECTED.write_text(dump(table))
    return 0


def dump(table: dict) -> str:
    """JSON with one line per recorded seed, so a re-recording diffs by seed."""
    lines = ["{"]
    names = sorted(table)
    for i, name in enumerate(names):
        entry = table[name]
        seeds = sorted(entry["seeds"], key=int)
        lines.append(f' "{name}": {{')
        lines.append(f'  "fixed": {json.dumps(entry["fixed"], sort_keys=True)},')
        lines.append('  "seeds": {')
        lines += [f'   "{s}": {json.dumps(entry["seeds"][s], sort_keys=True)}'
                  + ("," if j < len(seeds) - 1 else "") for j, s in enumerate(seeds)]
        lines.append("  }")
        lines.append(" }" + ("," if i < len(names) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
