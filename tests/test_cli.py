import io
import json

import pytest

from crystalpaths import ground_path, left_path, path_from_window, u_lambda
from crystalpaths.cli import MAX_ENTRY, MAX_SPAN, main
from crystalpaths.peterweyl import SliceReport
from crystalpaths.serialize import dumps, loads
from crystalpaths.weights import classical


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_apply_plain_ops_on_halfpath(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["apply", "--ops", "f1 f1 f0"],
                       dumps(left_path({})))
    assert code == 0
    b = left_path({}).f(1).f(1).f(0)
    assert loads(out.strip()) == b


def test_apply_absent_result_prints_zero(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["apply", "--ops", "e1"],
                       dumps(left_path({})))
    assert code == 0
    assert out.strip() == "0"


def test_apply_undefined_lowering_on_level_path(capsys, monkeypatch):
    # f_1 is undefined on the ground path of P_{1,0}
    code, out, _ = run(capsys, monkeypatch, ["apply", "--ops", "f1"],
                       dumps(ground_path(1, 0)))
    assert code == 0
    assert out.strip() == "0"


def test_apply_level_path_roundtrips_to_level_path(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["apply", "--ops", "f0"],
                       dumps(ground_path(2, 0)))
    assert code == 0
    data = json.loads(out.strip())
    assert set(data) == {"m", "l", "window_start", "window"}


def test_apply_starred_ops(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["apply", "--ops", "F1"],
                       dumps(ground_path(1, 0)))
    assert code == 0
    got = loads(out.strip())
    assert got.wt() == ground_path(1, 0).wt()  # starred moves keep the weight


def test_apply_rejects_unknown_token(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["apply", "--ops", "g2"],
                       dumps(left_path({})))
    assert code == 65
    assert "g2" in err


def test_malformed_json_exit_code(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["apply", "--ops", "f1"], "{not json")
    assert code == 64


@pytest.mark.parametrize("element", [
    {"side": "left", "entries": {"-1": 1.5}},
    {"side": "left", "entries": {"-1": True}},
    {"side": "left", "entries": {"-1": "2"}},
    {"m": 2.7, "l": 0, "window_start": 0, "window": [2]},
    {"first_color": 0, "a": [1.9]},
], ids=["entry-float", "entry-bool", "entry-string", "level-m-float", "seq-letter-float"])
def test_non_integer_numbers_are_malformed(element, capsys, monkeypatch):
    # these were truncated to integers and the command ran on the result
    code, out, err = run(capsys, monkeypatch, ["apply", "--ops", "f0"], json.dumps(element))
    assert code == 64 and out == "" and "integer" in err


@pytest.mark.parametrize("text", ['{"b1": ' * 990 + "1" + "}" * 990,
                                  "[" * 100000 + "]" * 100000],
                         ids=["nested-factors", "nested-lists"])
def test_deeply_nested_json_is_malformed(text, capsys, monkeypatch):
    # the parser's RecursionError escaped with a traceback and exit 1, the
    # code of a failed check
    code, out, err = run(capsys, monkeypatch, ["star"], text)
    assert code == 64 and out == "" and "malformed element JSON" in err


def test_unrecognized_element_exit_code(capsys, monkeypatch):
    code, _, _ = run(capsys, monkeypatch, ["star"], '{"weird": 1}')
    assert code == 64


def test_star_halfpath(capsys, monkeypatch):
    b = left_path({-2: -2, -1: 2})
    code, out, _ = run(capsys, monkeypatch, ["star"], dumps(b))
    assert code == 0
    assert loads(out.strip()) == left_path({-2: 2, -1: -2})


def test_star_level_path_golden(capsys, monkeypatch):
    p = path_from_window(2, 0, -5, [-1, 1, -2, 2, -2, 1, -1, 1, -2, 2])
    code, out, _ = run(capsys, monkeypatch, ["star"], dumps(p))
    assert code == 0
    assert loads(out.strip()) == path_from_window(
        4, 4, -5, [-1, 1, -2, 2, -2, 3, -3, 3, -4, 4])


def test_walls_output(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["walls"], dumps(ground_path(2, 0)))
    assert code == 0
    data = json.loads(out)
    assert data["walls"] == [[0, 2]]
    assert data["count"] == 2 and data["sign"] == 1


def test_graph_formats(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["graph", "--depth", "2"],
                       dumps(ground_path(1, 0)))
    assert code == 0
    data = json.loads(out)
    assert "nodes" in data and "edges" in data
    code, out, _ = run(capsys, monkeypatch,
                       ["graph", "--depth", "2", "--format", "dot"],
                       dumps(ground_path(1, 0)))
    assert code == 0
    assert out.startswith("digraph")


def test_extremal_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["extremal"], dumps(ground_path(2, 0)))
    assert code == 0 and json.loads(out)["extremal"] is True
    moved = dumps(u_lambda(classical(2, 0)).f(0))
    code, out, _ = run(capsys, monkeypatch, ["extremal"], moved)
    assert code == 1 and json.loads(out)["extremal"] is False


def test_bmax_enumeration_and_membership(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["bmax", "--lambda", "2,0", "--c-bound", "1", "--depth", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["size"] > 0 and len(data["seeds"]) == 2
    code, out, _ = run(capsys, monkeypatch,
                       ["bmax", "--lambda", "1,0", "--contains"],
                       dumps(ground_path(1, 0)))
    assert code == 0 and json.loads(out)["contains"] is True
    code, out, _ = run(capsys, monkeypatch,
                       ["bmax", "--lambda", "2,0", "--contains"],
                       dumps(ground_path(1, 0)))
    assert code == 1


def test_pw_verify(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["pw-verify", "--lambda", "1,0", "--depth", "3",
                        "--word-bound", "6"])
    assert code == 0
    data = json.loads(out)
    assert data["C1"] and data["C2"] and data["C3"]
    assert data["decompose_inconclusive"] == 0


PW_CHECKS = ("C1", "C2", "C3", "product", "dual", "mismatched", "violations")


@pytest.mark.parametrize("failing, inconclusive, expected",
                         [(None, 0, 0), (None, 1, 2)]
                         + [(check, 1, 1) for check in PW_CHECKS])
def test_pw_verify_exit_code_puts_a_definite_failure_first(
        failing, inconclusive, expected, capsys, monkeypatch):
    # 1 when a definite check fails, else 2 when decompose was inconclusive,
    # else 0
    from crystalpaths import cli
    rep = SliceReport(lam=classical(1, 0), c1=failing != "C1", c2=failing != "C2",
                      c3=failing != "C3", product_ok=failing != "product",
                      dual_characterization_ok=failing != "dual",
                      decompose_inconclusive=inconclusive,
                      decompose_mismatched=int(failing == "mismatched"),
                      violations=["pair map collision"] if failing == "violations" else [])
    monkeypatch.setattr(cli, "pw_verify", lambda *args, **kwargs: rep)
    code, out, _ = run(capsys, monkeypatch, ["pw-verify", "--lambda=1,0"])
    assert code == expected
    assert json.loads(out)["decompose_inconclusive"] == inconclusive


def test_oracle_check(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["oracle-check", "--samples", "100", "--seed", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0 and data["checked"] == 200


def test_oracle_check_support_over_the_span_limit_is_a_precondition_error(capsys, monkeypatch):
    # the oracle nests its word support + 2 levels deep; at 330 it overflowed
    # the recursion limit and exited 1, as if a property had failed
    code, out, err = run(capsys, monkeypatch,
                         ["oracle-check", "--support", str(MAX_SPAN + 1)])
    assert code == 65 and out == ""
    assert f"limit of {MAX_SPAN}" in err


def test_oracle_check_support_at_the_span_limit_runs(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["oracle-check", "--support", str(MAX_SPAN), "--samples", "2"])
    assert code == 0
    assert json.loads(out) == {"checked": 4, "failures": 0}


def test_file_input(tmp_path, capsys, monkeypatch):
    f = tmp_path / "elt.json"
    f.write_text(dumps(ground_path(1, 0)))
    code, out, _ = run(capsys, monkeypatch, ["walls", "--file", str(f)])
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_non_utf8_file_is_malformed(tmp_path, capsys, monkeypatch):
    f = tmp_path / "elt.json"
    f.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, monkeypatch, ["walls", "--file", str(f)])
    assert code == 64
    assert "malformed element JSON" in err


def test_graph_text_format(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["graph", "--depth", "1", "--format", "text"],
                       dumps(ground_path(1, 0)))
    assert code == 0
    assert "depth=0" in out and "-f" in out


def test_oracle_check_seed_file(tmp_path, capsys, monkeypatch):
    f = tmp_path / "seed"
    f.write_text("7")
    code, out, _ = run(capsys, monkeypatch,
                       ["oracle-check", "--samples", "20", "--seed-file", str(f)])
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_missing_file_is_precondition_error(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["star", "--file", "/nonexistent.json"])
    assert code == 65


@pytest.mark.parametrize("argv", [
    ["bmax", "--lambda", "-3,0", "--depth", "1"],
    ["pw-verify", "--lambda", "-1,0", "--depth", "2", "--word-bound", "4"],
])
def test_lambda_takes_a_separate_negative_value(argv, capsys, monkeypatch):
    spaced = run(capsys, monkeypatch, argv)
    glued = run(capsys, monkeypatch, [argv[0], "--lambda=" + argv[2]] + argv[3:])
    assert spaced == glued
    assert spaced[0] == 0


@pytest.mark.parametrize("argv", [
    ["bmax"],
    ["no-such-command"],
    ["pw-verify", "--lambda", "1,0", "--depth", "x"],
    ["walls", "--bogus"],
])
def test_usage_errors_are_precondition_errors(argv, capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, argv)
    assert code == 65
    assert out == "" and "usage:" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


_RIGHT_B1 = {"b1": {"side": "right", "entries": {"0": 1}}, "lam": {"L0": 1, "L1": -1, "delta": 0},
             "b2": {"side": "right", "entries": {}}}
_LEVEL_ONE = {"b1": {"side": "left", "entries": {}}, "lam": {"L0": 1, "L1": 0, "delta": 0},
              "b2": {"side": "right", "entries": {}}}


@pytest.mark.parametrize("argv,element", [
    (["apply", "--ops", "f0"], _RIGHT_B1),
    (["star"], _LEVEL_ONE),
    (["walls"], _LEVEL_ONE),
])
def test_invalid_three_factor_element_is_malformed(argv, element, capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, argv, json.dumps(element))
    assert code == 64 and out == ""


@pytest.mark.parametrize("argv,element", [
    (["graph"], {"L0": 1, "L1": 0, "delta": 0}),
    (["apply", "--ops", "f0"], {"L0": 1, "L1": 0, "delta": 0}),
    (["star"], {"first_color": 0, "a": [0, 1, 5]}),
    (["graph"], {"first_color": 0, "a": [0, 1, 5]}),
])
def test_non_elements_are_precondition_errors(argv, element, capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, argv, json.dumps(element))
    assert code == 65 and out == ""


@pytest.mark.parametrize("argv", [
    ["graph", "--depth", "-1"],
    ["extremal", "--word-bound", "-1"],
    ["bmax", "--lambda=2,0", "--c-bound", "-1"],
    ["bmax", "--lambda=2,0", "--depth", "-2"],
    ["pw-verify", "--lambda=1,0", "--word-bound", "-1"],
    ["oracle-check", "--support", "-1"],
    ["oracle-check", "--entry-bound", "-1"],
    ["oracle-check", "--samples", "-3"],
])
def test_negative_bounds_are_precondition_errors(argv, capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, argv, dumps(ground_path(1, 0)))
    assert code == 65 and out == ""
    assert "nonnegative" in err


@pytest.mark.parametrize("argv", [
    ["bmax", "--lambda=2,0,7"],
    ["pw-verify", "--lambda=1,0,0", "--depth", "2"],
])
def test_lambda_with_more_than_two_components_is_a_precondition_error(argv, capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, argv)
    assert code == 65 and out == ""
    assert "bad --lambda value" in err


def _half(side, entries):
    return {"side": side, "entries": {str(k): v for k, v in entries.items()}}


def _mod(b1=None, m=0, b2=None):
    return {"b1": _half("left", b1 or {}), "lam": {"L0": m, "L1": -m, "delta": 0},
            "b2": _half("right", b2 or {})}


@pytest.mark.parametrize("argv,element", [
    (["star"], _half("left", {-100000: 1})),  # ran for minutes before the limit
    (["star"], _half("left", {-MAX_SPAN - 1: 1})),
    (["star"], _half("right", {MAX_SPAN: -1})),
    (["walls"], _half("left", {-1: MAX_ENTRY + 1})),
    (["apply", "--ops", "f0"], _half("right", {0: -MAX_ENTRY - 1})),
    (["graph"], {"m": 1, "l": 0, "window_start": -MAX_SPAN, "window": [1]}),
    (["extremal"], {"m": MAX_ENTRY + 1, "l": 0, "window_start": 0, "window": [1]}),
    (["walls"], {"m": 1, "l": 0, "window_start": 0, "window": [MAX_ENTRY + 1]}),
    (["star"], _mod(b2={MAX_SPAN: 1})),
    (["apply", "--ops", "E0"], _mod(b1={-1: -MAX_ENTRY - 1})),
    (["extremal"], _mod(m=-MAX_ENTRY - 1)),
    (["bmax", "--lambda=1,0", "--contains"], _mod(m=MAX_ENTRY + 1)),
    (["star"], {"first_color": 0, "a": [1] * (MAX_SPAN + 1)}),
    (["star"], {"first_color": 1, "a": [MAX_ENTRY + 1]}),
])
def test_elements_over_the_input_limits_are_precondition_errors(argv, element, capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, argv, json.dumps(element))
    assert code == 65 and out == ""
    assert f"the limits are {MAX_SPAN} and {MAX_ENTRY}" in err


@pytest.mark.parametrize("element", [
    _half("left", {-MAX_SPAN: MAX_ENTRY}),
    _half("right", {MAX_SPAN - 1: -MAX_ENTRY}),
    {"m": MAX_ENTRY, "l": 0, "window_start": 1 - MAX_SPAN, "window": [1]},
    _mod(b1={-MAX_SPAN: 1}, m=-MAX_ENTRY, b2={MAX_SPAN - 1: MAX_ENTRY}),
    {"first_color": 0, "a": [MAX_ENTRY] * MAX_SPAN},
])
def test_elements_at_the_input_limits_are_accepted(element, capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["star"], json.dumps(element))
    assert code == 0 and out
