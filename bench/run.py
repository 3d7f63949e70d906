"""crystalpaths benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is pw_verify, star_long, component_bfs, or all (each workload in its
own process, one after the other).  Run it from the root of a source
checkout; it imports the library from ./src and nothing else.

With --trace 0 it sets the workload up, then repeats the workload's pass
(its fixed list of calls) in one thread until S seconds have passed, at
least MIN_CALLS calls were made and at least the workload's min_passes
passes ran, and reports the end-to-end metrics.  With --trace 1 it runs
one untraced pass and one traced pass, reports the per-layer metrics and
the tracing overhead, and writes the spans under .bench_out/.  Every call's output is checked; the last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
NAMES = ("pw_verify", "star_long", "component_bfs")
SETUP_PROBES = 5      # fresh processes timed for setup_s; the median is reported
MIN_CALLS = 20        # so that call_tail_ms always has ten calls beyond it
TAIL_BEYOND = 10
# The CPU is shared, and its speed drifts by a third over seconds and
# minutes.  Every timing is therefore taken at a reference speed: raw time
# scaled by REF_S over the mean time reference_kernel took around and, every
# SAMPLE_EVERY_S, during the timed code.
REF_S = 0.0035
SAMPLE_EVERY_S = 0.25


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def expected_record(expected: dict, workload: str, seed: int, label: str):
    """The recorded output for one call, or None when this seed was not
    recorded (seed-independent calls are always recorded)."""
    table = expected[workload]
    if label in table["fixed"]:
        return table["fixed"][label]
    return table["seeds"].get(str(seed), {}).get(label)


def as_json(value):
    return json.loads(json.dumps(value))


_KERNEL_TABLE = {(i, i & 7): 0 for i in range(20000)}


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop of tuple, dict and integer
    work, the kind of work the library does.  Its table is allocated once,
    so running it inside a call does not raise the call's peak memory."""
    t0 = perf_counter()
    table = _KERNEL_TABLE
    acc = 0
    for i in range(20000):
        key = (i, i & 7)
        table[key] = table[key] + 1
        acc += len(key) * (i % 3)
    return perf_counter() - t0


class SpeedSampler:
    """Speed samples from inside long calls.

    While running, a SIGALRM timer fires every SAMPLE_EVERY_S; inside a
    ``timing()`` block the handler runs reference_kernel (in the main
    thread, between bytecodes) and records its time, which the caller
    subtracts from the block's elapsed time."""

    def __init__(self):
        self.samples: list[float] = []
        self._timing = False

    def _tick(self, signum, frame):
        if self._timing:
            self.samples.append(reference_kernel())

    @contextmanager
    def running(self, enabled: bool):
        if not enabled:
            yield self
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def timing(self):
        self.samples.clear()
        self._timing = True
        try:
            yield
        finally:
            self._timing = False


class PassResult:
    def __init__(self):
        self.durations: list[float] = []   # per call, at the reference speed
        self.records: dict[str, object] = {}
        self.work = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.wall = 0.0                    # raw wall time of the whole pass

    @property
    def busy(self) -> float:
        return sum(self.durations)


def run_pass(wl, inputs, expected, seed, tracer=None, calibrate=True) -> PassResult:
    """One pass over the workload's calls.

    A call fails when it raises, when its own checks report a problem, or
    when its output differs from the one recorded in expected.json.  With
    calibrate, each call's time is taken at the reference speed: the kernel
    runs before and after every call and every SAMPLE_EVERY_S during it."""
    res = PassResult()
    sampler = SpeedSampler()
    start = perf_counter()
    with sampler.running(calibrate):
        before = reference_kernel() if calibrate else REF_S
        for index, (label, inp) in enumerate(inputs):
            if tracer is not None:
                tracer.call_id = index
            problems = []
            out = None
            with sampler.timing():
                t0 = perf_counter()
                try:
                    out = wl.call(inp)
                except Exception:
                    problems.append(traceback.format_exc(limit=3))
                elapsed = perf_counter() - t0
            after = reference_kernel() if calibrate else REF_S
            kernel = [before, *sampler.samples, after]
            res.durations.append((elapsed - sum(sampler.samples)) * REF_S / statistics.fmean(kernel))
            before = after
            if out is not None:
                record = as_json(out.record)
                res.records[label] = record
                res.work += out.work
                problems += out.problems
                want = expected_record(expected, wl.name, seed, label)
                if want is not None and record != want:
                    problems.append(f"output {record!r} differs from expected {want!r}")
            if problems:
                res.failures.append((label, problems))
    res.wall = perf_counter() - start
    return res


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    TAIL_BEYOND values above it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def setup_probe(workload: str, seed: int) -> float:
    """Import, input generation and warm-up, timed in this process at the
    reference speed."""
    before = min(reference_kernel() for _ in range(2))
    t0 = perf_counter()
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[workload]
    wl.inputs(seed)
    wl.warm_up()
    elapsed = perf_counter() - t0
    return elapsed * REF_S / ((before + reference_kernel()) / 2)


def probe_setup_times(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def report(name: str, rows: list[tuple[str, float, str, str]]) -> None:
    for metric, value, unit, note in rows:
        print(f"{name:14s} {metric:34s} {value:14.6g} {unit:8s} {note}")


def print_failures(failures) -> None:
    for label, problems in failures[:20]:
        for p in problems:
            print(f"FAILED {label}: {p}", file=sys.stderr)


def input_rows(wl, inputs) -> list:
    lens = [wl.letters(inp) for _, inp in inputs]
    long_share = sum(n >= spans.LONG_INPUT for n in lens) / len(lens)
    return [
        ("input.calls", len(lens), "count", "calls per pass"),
        ("input.letters_p50", statistics.median(lens), "letters", "half-path letters of a call input"),
        ("input.letters_max", max(lens), "letters", ""),
        ("input.share_ge24", long_share, "ratio", f"base {len(lens)} calls"),
    ]


def run_untraced(wl, inputs, expected, seed, seconds) -> dict:
    setup = probe_setup_times(wl.name, seed)
    passes: list[PassResult] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(wl, inputs, expected, seed))
        calls = sum(len(p.durations) for p in passes)
        if (perf_counter() - start >= seconds and calls >= MIN_CALLS
                and len(passes) >= wl.min_passes):
            break
    durations = [d for p in passes for d in p.durations]
    failures = [f for p in passes for f in p.failures]
    busy = sum(p.busy for p in passes)
    tail_s, tail_pct = tail(durations)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(durations)
    rows = [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        ("wall_s", statistics.median(p.busy for p in passes), "s",
         f"median of {len(passes)} passes of {len(inputs)} calls"),
        ("work_per_s", sum(p.work for p in passes) / busy, "1/s", wl.work_unit),
        ("call_p50_ms", 1000 * statistics.median(durations), "ms", f"{attempted} calls"),
        ("call_tail_ms", 1000 * tail_s, "ms", f"p{tail_pct:.1f} of {attempted} calls"),
        ("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process"),
        ("raw_wall_s", statistics.median(p.wall for p in passes), "s",
         "uncalibrated pass time, with the kernel runs and checks"),
        ("fail_ratio", len(failures) / attempted, "1", f"{len(failures)} of {attempted} calls"),
    ]
    report(wl.name, rows + input_rows(wl, inputs))
    print_failures(failures)
    metrics = {m: {"value": v, "unit": u} for m, v, u, _ in rows
               if m not in ("fail_ratio", "raw_wall_s")}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def run_traced(wl, inputs, expected, seed) -> dict:
    plain = run_pass(wl, inputs, expected, seed, calibrate=False)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_pass(wl, inputs, expected, seed, tracer, calibrate=False)
    problems = [f"not restored after tracing: {name}" for name in tracer.leftovers()]
    problems += [f"traced output of {label} differs from untraced"
                 for label, rec in traced.records.items() if plain.records.get(label) != rec]
    rows = [(m, v, u, "") for m, (v, u) in tracer.metrics().items()]
    rows += input_rows(wl, inputs)
    rows += [
        ("trace.outside_s", traced.wall - tracer.root_s, "s", "traced time outside all spans"),
        ("trace.untraced_wall_s", plain.wall, "s", "one pass"),
        ("trace.traced_wall_s", traced.wall, "s", "one pass"),
        ("trace.overhead_s", traced.wall - plain.wall, "s", "traced minus untraced"),
    ]
    report(wl.name, rows)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.json")
    failures = plain.failures + traced.failures
    print_failures(failures + [("tracing", problems)])
    attempted = len(plain.durations) + len(traced.durations)
    metrics = {m: {"value": v, "unit": u} for m, v, u, _ in rows}
    return {"correct": not failures and not problems, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def run_one(args) -> dict:
    workloads = importlib.import_module("workloads")
    library = importlib.import_module("crystalpaths")
    if Path(library.__file__).resolve().parent != SRC / "crystalpaths":
        raise RuntimeError(f"crystalpaths was imported from {library.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    wl.warm_up()
    expected = load_expected()
    if args.trace:
        return run_traced(wl, inputs, expected, args.seed)
    return run_untraced(wl, inputs, expected, args.seed, args.seconds)


def run_all(args) -> dict:
    """Each workload in its own process, so setup and peak RSS are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "crystalpaths" / "__init__.py").is_file():
        print(f"error: no crystalpaths sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
