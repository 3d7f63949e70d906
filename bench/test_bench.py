"""Tests of the benchmark's own machinery on tiny inputs.

Run with the tier-1 command (PYTHONPATH=src python -m pytest); pytest puts
this directory on sys.path, so the benchmark modules import by name.
"""

from collections import defaultdict
from time import perf_counter

import pytest

import run
import spans
import workloads
from crystalpaths import cli, halfpath, star
from crystalpaths.halfpath import HalfPath

# Self times and the time outside all spans must add up to the traced wall
# time to within this many seconds (float rounding over a few thousand spans).
TOLERANCE_S = 1e-6


def _tiny_calls():
    wl_star = workloads.WORKLOADS["star_long"]
    wl_bfs = workloads.WORKLOADS["component_bfs"]
    wl_star.call(("left", halfpath.from_word([2, -1, 0, 3, -2])))
    wl_star.call(("right", halfpath.from_word([1, -3, 2]).flip()))
    wl_bfs.call(next(inp for _, inp in wl_bfs.inputs(0) if inp[0] == "root"))
    cli.main(["bmax", "--lambda=2,0", "--depth=1"])
    with pytest.raises(ValueError):
        star.star_binf(halfpath.right_path({0: 1}))


def _self_times_from_spans(tracer):
    """Self time per layer recomputed from the recorded spans."""
    children = defaultdict(float)
    for sid, layer, start, end, parent, call in tracer.spans:
        children[parent] += end - start
    out = [0.0] * len(tracer.layers)
    for sid, layer, start, end, parent, call in tracer.spans:
        out[layer] += (end - start) - children[sid]
    return out


def test_self_times_and_outside_time_sum_to_traced_wall(capsys):
    tracer = spans.Tracer()
    with tracer.installed():
        t0 = perf_counter()
        _tiny_calls()
        wall = perf_counter() - t0
    assert tracer.dropped == 0 and len(tracer.spans) > 100
    assert not tracer._stack
    recomputed = _self_times_from_spans(tracer)
    for layer, (live, again) in enumerate(zip(tracer.self_s, recomputed)):
        assert live == pytest.approx(again, abs=TOLERANCE_S), tracer.layers[layer]
    roots = sum(end - start for _, _, start, end, parent, _ in tracer.spans if parent == -1)
    outside = wall - roots
    assert outside >= 0
    assert sum(tracer.self_s) + outside == pytest.approx(wall, abs=TOLERANCE_S)
    metrics = tracer.metrics()
    assert metrics["star.binf_calls"][0] >= 4
    assert metrics["core.bfs_calls"][0] == 1
    assert metrics["cli.calls"][0] == 1


def test_wrappers_are_restored():
    originals = {
        "star.star_binf": star.star_binf,
        "cli.star_binf": cli.star_binf,
        "HalfPath.e": vars(HalfPath)["e"],
        "HalfPath.__post_init__": vars(HalfPath)["__post_init__"],
    }
    tracer = spans.Tracer()
    with tracer.installed():
        assert star.star_binf is not originals["star.star_binf"]
        assert cli.star_binf is star.star_binf
        assert vars(HalfPath)["e"] is not originals["HalfPath.e"]
        assert tracer.leftovers()  # everything is still wrapped here
    assert tracer.leftovers() == []
    assert star.star_binf is originals["star.star_binf"]
    assert cli.star_binf is originals["cli.star_binf"]
    assert vars(HalfPath)["e"] is originals["HalfPath.e"]
    assert vars(HalfPath)["__post_init__"] is originals["HalfPath.__post_init__"]


def test_star_cache_is_the_original_lru_cache():
    b = halfpath.from_word([1, 2, -1, 3])
    tracer = spans.Tracer()
    with tracer.installed():
        star.star_binf.cache_clear()
        star.star_binf(b)
        star.star_binf(b)
        assert star.star_binf.cache_info().hits == 1
    hits, misses = tracer.cache_counts()
    assert (hits, misses) == (1, 1)
    assert tracer.metrics()["star.binf_calls"][0] == 2


def test_gate_flags_a_corrupted_expected_value():
    wl = workloads.WORKLOADS["pw_verify"]
    inputs = [("1,0", (1, 0))]
    expected = run.load_expected()
    assert run.run_pass(wl, inputs, expected, 0, calibrate=False).failures == []
    expected["pw_verify"]["fixed"]["1,0"]["pair_count"] += 1
    failures = run.run_pass(wl, inputs, expected, 0, calibrate=False).failures
    assert [label for label, _ in failures] == ["1,0"]


def test_tail_has_ten_values_beyond_it():
    values = list(range(1, 21))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert pct == 50.0
