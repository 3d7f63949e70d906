"""Byte-for-byte CLI regression corpus.

tests/data/cli_golden.json holds, for each case, the argv, the stdin, and
the recorded exit code and stdout.  Every case must print exactly that; a
change to the corpus is a change to the CLI's observable behaviour.
"""

import io
import json
from pathlib import Path

import pytest

from crystalpaths.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_unchanged(case, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"]))
    code = main(case["argv"])
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
