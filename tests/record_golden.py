"""Append one case to the CLI regression corpus.

    PYTHONPATH=src python3 tests/record_golden.py NAME ARGV... < STDIN

Reads the case's stdin from standard input, runs crystalpaths.cli.main on
ARGV in-process, as tests/test_cli_golden.py does, and appends
{name, argv, stdin, exit, stdout} to tests/data/cli_golden.json.  A name
already in the corpus is refused.  The file is rewritten in its own format
(indent 1, no final newline), so the existing cases show no diff.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from crystalpaths.cli import main

CORPUS = Path(__file__).parent / "data" / "cli_golden.json"


def record(name: str, argv: list[str], stdin: str) -> dict:
    cases = json.loads(CORPUS.read_text())
    if any(c["name"] == name for c in cases):
        raise SystemExit(f"record_golden: case {name!r} already exists")
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    case = {"name": name, "argv": argv, "stdin": stdin, "exit": code, "stdout": out.getvalue()}
    CORPUS.write_text(json.dumps(cases + [case], indent=1))
    return case


if __name__ == "__main__":
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    case = record(sys.argv[1], sys.argv[2:], sys.stdin.read())
    print(f"recorded {case['name']}: exit {case['exit']}, {len(case['stdout'])} bytes")
