#!/usr/bin/env python3
"""Benchmark of isoflow: end-to-end time and memory per workload, time per layer when traced.

Run from the repository root:

    python3 perfbench/run.py --workload window_algebra --seed 1 --seconds 25 --trace 0

One process runs one workload with one client in a closed loop: a pass loads
the workload's config files with ``cli.load_scenarios``, runs every scenario
with ``catalog.run_scenario`` in an order shuffled by ``--seed``, and renders
each file with ``report.render_reports``; the next pass starts when the last
one has finished.  Every rendered scenario is checked against its reference
(``tests/golden/*.txt`` or ``perfbench/reference.json``).

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``verify_s_p50`` and
``peak_rss_mb``, and prints ``fail_ratio``.  Times are scaled to a reference
host speed (see ``calibration_slice``); the raw wall times are printed too.
``--trace 1`` runs untraced passes for half the time and passes traced by
``tracing.Tracer`` for the other half, and reports the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it are
diagnostics.  BLAS is pinned to one thread before numpy is imported.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402  (this directory is sys.path[0])
from workloads import NAMES, batches, block_name, digest, split_blocks  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MAX_TRACED_PASSES = 20  # spans are kept in memory until the run ends
CALIBRATE_EVERY = 0.2  # seconds of workload between calibration slices
REFERENCE_SLICE_S = 0.02  # a slice's value at the reference host speed
LOAD, RENDER = "(load)", "(render)"
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

PROBE = """\
import sys
sys.path.insert(0, {src!r})
import isoflow
from isoflow.cli import load_scenarios
print(sum(len(load_scenarios(path)) for path in {configs!r}))
"""

clock = time.perf_counter
_svd = np.linalg.svd  # bound before tracing wraps np.linalg, so slices leave no spans
_SHIFT = np.roll(np.eye(128, dtype=np.complex128), 1, axis=0)
_SQUARE = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) % 7
_TALL = (np.arange(640 * 48) % 5).reshape(640, 48) + 1j


def fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def median(values):
    return statistics.median(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values):
    """Highest listed percentile with at least ten passes beyond it, or None."""
    ordered = sorted(values)
    best = None
    for p in PERCENTILES:
        if len(ordered) * (1 - p / 100) >= 10:
            best = (p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))])
    return best


def calibration_slice() -> float:
    """Time a fixed sample of the two kinds of work isoflow does.

    The first part is interpreter- and cache-bound: zgemm on 128x128, per-column
    support sets, a small SVD and a Python loop.  The second is a full SVD of a
    tall 640x48 complex matrix, memory-bound like ``numlin.nullspace``.  The
    speed of a shared host drifts by up to 2x over seconds to minutes, each kind
    of work by a different amount, so the slice is the geometric mean of the
    two parts' wall times.  A time divided by the slices timed next to it,
    times ``REFERENCE_SLICE_S``, is that time at the reference speed: the drift
    cancels, a change to isoflow does not.
    """
    start = clock()
    power = _SHIFT
    for _ in range(16):
        power = power @ _SHIFT
        for col in range(0, 128, 4):
            frozenset(int(i) for i in np.flatnonzero(power[:, col]))
    _svd(_SQUARE)
    total = 0
    for i in range(60000):
        total += i * i
    middle = clock()
    _svd(_TALL, full_matrices=True)
    return ((middle - start) * (clock() - middle)) ** 0.5


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype, func.argtypes = ctypes.c_int, []
                return func()
    return None


def openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return done.stdout.strip() if done.returncode == 0 else "n/a (not a git checkout)"


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "isoflow").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()[:16]


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "blas_threads_requested": BLAS_THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "openblas": openblas_version(),
            "git_commit": git_commit(), "source_sha256": source_digest()}


# ---------------------------------------------------------------------------
# set-up and passes


def measure_setup(batches) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import isoflow and load the config,
    raw and scaled by the calibration slices taken before and after each."""
    configs = [str(b.config) for b in batches]
    expected = sum(len(b.expected) for b in batches)
    code = PROBE.format(src=str(SRC), configs=configs)
    wall, scaled = [], []
    before = calibration_slice()
    for _ in range(SETUP_PROBES):
        start = clock()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        wall.append(clock() - start)
        if done.returncode != 0 or done.stdout.strip() != str(expected):
            fail(f"set-up probe failed: {done.stderr.strip() or done.stdout.strip()}")
        after = calibration_slice()
        scaled.append(wall[-1] * REFERENCE_SLICE_S / ((before + after) / 2))
        before = after
    return wall, scaled


class Pass:
    """Timing of one pass: wall time of each part (load, scenarios, render)
    and the calibration slices taken between parts, outside the timed parts."""

    def __init__(self, parts: dict, slices: list):
        self.parts = parts
        self.slices = slices
        self.seconds = sum(parts.values())
        self.scaled = self.seconds * REFERENCE_SLICE_S / median(slices)


class Runner:
    """Runs passes of one workload and checks every rendered scenario."""

    def __init__(self, batches, seed: int, isoflow):
        self.batches = batches
        self.rng = random.Random(seed)
        self.isoflow = isoflow
        self.tracer = None
        self.passes = 0
        self.attempted = 0
        self.failures: list[str] = []

    def _trace(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.trace = f"{label}#{self.passes}"

    def run_pass(self) -> Pass:
        cli, catalog, report = self.isoflow.cli, self.isoflow.catalog, self.isoflow.report
        slices = [calibration_slice()]
        parts, errors = {}, {}
        self._trace("load")
        start = clock()
        loaded = [cli.load_scenarios(str(batch.config)) for batch in self.batches]
        parts[LOAD] = since_slice = clock() - start
        jobs = [(b, i) for b, scenarios in enumerate(loaded) for i in range(len(scenarios))]
        self.rng.shuffle(jobs)
        reports = [[None] * len(scenarios) for scenarios in loaded]
        for b, i in jobs:
            if since_slice >= CALIBRATE_EVERY:
                slices.append(calibration_slice())
                since_slice = 0.0
            scenario = loaded[b][i]
            self._trace(scenario.name)
            start = clock()
            try:
                reports[b][i] = catalog.run_scenario(scenario)
            except Exception as exc:  # a failed scenario is counted, the pass goes on
                errors[scenario.name] = f"{type(exc).__name__}: {exc}"
            parts[scenario.name] = clock() - start
            since_slice += parts[scenario.name]
        self._trace("render")
        start = clock()
        texts = [report.render_reports([r for r in done if r is not None],
                                       version=self.isoflow.__version__) for done in reports]
        parts[RENDER] = clock() - start
        for batch, done, text in zip(self.batches, reports, texts):
            self._check(batch, done, text, errors)
        self.passes += 1
        return Pass(parts, slices)

    def _check(self, batch, reports, text, errors) -> None:
        blocks = {block_name(block): block for block in split_blocks(text)}
        overall = {r.scenario: r.overall for r in reports if r is not None}
        failed = []
        for name, expected in batch.expected.items():
            if name in errors:
                failed.append(f"{name}: raised {errors[name]}")
            elif name not in blocks:
                failed.append(f"{name}: no report rendered")
            elif not overall.get(name, False):
                failed.append(f"{name}: report says overall FAIL")
            elif digest(blocks[name]) != expected:
                failed.append(f"{name}: rendered report differs from the reference")
        unexpected = sorted(set(blocks) - set(batch.expected))
        failed += [f"{name}: not in the reference" for name in unexpected]
        if not failed and batch.golden is not None and text != batch.golden:
            failed = [f"{name}: {batch.config.name} differs from its golden file"
                      for name in batch.expected]
        self.attempted += len(batch.expected) + len(unexpected)
        self.failures += failed

    def timed(self, seconds: float, min_passes: int):
        """Passes until the next one would end after ``seconds``."""
        passes = []
        begin = clock()
        while True:
            passes.append(self.run_pass())
            spent = clock() - begin
            if len(passes) >= min_passes and spent + passes[-1].seconds > seconds:
                return passes


# ---------------------------------------------------------------------------
# reports


def print_passes(label: str, times) -> float:
    q1, q3 = quartiles(times)
    high = tail(times)
    tail_text = (f"p{high[0]:g}={high[1]:.6f} s" if high
                 else "none (fewer than 10 passes beyond p50)")
    print(f"{label}: passes={len(times)} p50={median(times):.6f} s q1={q1:.6f} s "
          f"q3={q3:.6f} s highest percentile with >=10 passes beyond: {tail_text}")
    return median(times)


def print_parts(passes) -> None:
    for name in sorted(passes[0].parts):
        values = [p.parts[name] for p in passes]
        print(f"  part {name}: p50={median(values):.6f} s over {len(values)} passes")


def result_line(runner, metrics: dict, extra_ok: bool = True) -> str:
    failed = len(runner.failures)
    return json.dumps({"correct": failed == 0 and extra_ok, "attempted": runner.attempted,
                       "failed": failed, "metrics": metrics})


def report_failures(runner) -> None:
    ratio = len(runner.failures) / runner.attempted if runner.attempted else 0.0
    print(f"fail_ratio: {ratio!r} ratio ({len(runner.failures)} failed of "
          f"{runner.attempted} scenario runs)")
    for line in runner.failures[:10]:
        print(f"perfbench: failed: {line}", file=sys.stderr)


def untraced(runner, seconds: float, setup_wall: list, setup_scaled: list) -> str:
    passes = runner.timed(seconds, MIN_PASSES)
    wall_p50 = print_passes("pass wall time", [p.seconds for p in passes])
    print_parts(passes)
    p50 = print_passes("pass time at reference speed", [p.scaled for p in passes])
    slices = [s for p in passes for s in p.slices]
    print(f"calibration slices: {len(slices)}, p50={median(slices):.6f} s, "
          f"reference {REFERENCE_SLICE_S} s")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = median(setup_scaled)
    print(f"setup wall time: p50={median(setup_wall):.6f} s over {len(setup_wall)} processes")
    print(f"verify wall time: p50={wall_p50:.6f} s")
    print(f"setup_s: {setup_s!r} s")
    print(f"verify_s_p50: {p50!r} s")
    print(f"peak_rss_mb: {peak!r} MB")
    report_failures(runner)
    return result_line(runner, {"setup_s": {"value": setup_s, "unit": "s"},
                                 "verify_s_p50": {"value": p50, "unit": "s"},
                                 "peak_rss_mb": {"value": peak, "unit": "MB"}})


def traced(runner, seconds: float, workload: str, seed: int) -> str:
    plain = runner.timed(seconds / 2, MIN_TRACED_PASSES)
    plain_p50 = print_passes("untraced pass wall time", [p.seconds for p in plain])
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    per_pass, passes = [], []
    try:
        begin = clock()
        for _ in range(MAX_TRACED_PASSES):
            first = len(tracer.spans)
            passes.append(runner.run_pass())
            per_pass.append(tracer.pass_metrics(first, len(tracer.spans)))
            spent = clock() - begin
            if len(passes) >= MIN_TRACED_PASSES and spent + passes[-1].seconds > seconds / 2:
                break
    finally:
        tracer.uninstall()
        runner.tracer = None
    traced_p50 = print_passes("traced pass wall time", [p.seconds for p in passes])
    print_parts(passes)
    traced_ref = median([p.scaled for p in passes])
    plain_ref = median([p.scaled for p in plain])
    print(f"tracing overhead: {traced_ref - plain_ref:.6f} s per pass at reference speed "
          f"(traced p50 {traced_ref:.6f} s - untraced p50 {plain_ref:.6f} s); "
          f"wall time: {traced_p50 - plain_p50:.6f} s")

    metrics, counts_equal = {}, True
    for name, first in per_pass[0][0].items():
        values = [layer_metrics[name][0] for layer_metrics, _ in per_pass]
        unit = first[1]
        if unit == "s":
            metrics[name] = {"value": median(values), "unit": unit}
        else:
            counts_equal &= all(v == values[0] for v in values)
            metrics[name] = {"value": values[0], "unit": unit}
        base = f" ({first[2]} of {first[3]})" if unit == "ratio" else ""
        print(f"{name}: {metrics[name]['value']!r} {unit}{base}")
    print("counts repeat exactly across traced passes:", "yes" if counts_equal else "NO")
    count_digest = hashlib.sha256(json.dumps(
        {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"},
        sort_keys=True).encode()).hexdigest()[:16]
    print(f"count digest: {count_digest} (equal between traced runs of the same code)")
    for layer in LAYERS:
        self_s = median([layer_self[layer] for _, layer_self in per_pass])
        print(f"  self time {layer}: {self_s:.6f} s = {self_s / traced_p50:.1%} of a traced pass")
    lapack = metrics["numlin.lapack_s"]["value"]
    print(f"  numlin.lapack_s: {lapack / traced_p50:.1%} of a traced pass")
    if tracer.missing:
        print("entry points not found, not traced:", ", ".join(tracer.missing))
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write_jsonl(trace_path)
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    report_failures(runner)
    if not counts_equal:
        print("perfbench: failed: counts differ between traced passes", file=sys.stderr)
    return result_line(runner, metrics, counts_equal)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "isoflow" / "__init__.py").is_file():
        fail(f"no isoflow source under {SRC}")
    sys.path.insert(0, str(SRC))
    import isoflow
    import isoflow.catalog
    import isoflow.cli
    import isoflow.report

    if pathlib.Path(isoflow.__file__).resolve().parent != SRC / "isoflow":
        fail(f"imported isoflow from {isoflow.__file__}, not from {SRC}")
    try:
        work = batches(args.workload, ROOT, OUT)
    except (OSError, KeyError, ValueError) as exc:
        fail(f"cannot prepare workload {args.workload}: {exc}")
    print("environment:", json.dumps(environment(), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} clients=1 loop=closed configs={len(work)} "
          f"scenarios={sum(len(b.expected) for b in work)}")

    if not args.trace:
        setup_wall, setup_scaled = measure_setup(work)
        print("setup probes (wall):", " ".join(f"{t:.6f}" for t in setup_wall), "s")
    runner = Runner(work, args.seed, isoflow)
    runner.run_pass()  # warm-up: caches and lazy set-up, checked but not timed
    if args.trace:
        print(traced(runner, args.seconds, args.workload, args.seed))
    else:
        print(untraced(runner, args.seconds, setup_wall, setup_scaled))
    return 0


if __name__ == "__main__":
    sys.exit(main())
