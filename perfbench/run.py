#!/usr/bin/env python3
"""bmdlimits benchmark.

    python3 perfbench/run.py --workload {cli,solve,simulate,sparse} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run from the repository root; the library is imported from ``src/``.  One
client runs a closed loop: each operation starts when the previous one has
finished, and passes of the workload's operation list repeat until the next
pass would end after ``--seconds``.  Every answer is checked.

Bounded times are reference times (speed.py): wall times scaled by the
host's speed, as measured by reference slices timed next to them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Spans of a traced run are written to ``perfbench/out/``.  README.md in this
directory documents every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
IMPORT_REPEATS = 7  # fresh-interpreter imports per run; their median is in setup_s
INPUT_REPEATS = 3  # input generations per run; their median is in setup_s
MIN_PASSES = 2
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# End-to-end metrics in the result line, each with a bound in BENCHMARK.json.
# The raw times, call_p50_s, call_tail_s and fail_ratio are printed on "#"
# lines only: raw times follow this machine's speed swings too closely for a
# 0.25 bound, and fail_ratio is 0 on a correct tree.
BOUNDED = ("setup_s", "wall_s", "peak_rss_mb")


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail(samples: list[float], guaranteed: int) -> tuple[float, int]:
    """(value, percentile) of the operation latencies.

    The percentile is the highest whole one that leaves at least TAIL_BEYOND
    samples above it at the sample count every run reaches (``guaranteed``:
    MIN_PASSES passes), so that it does not depend on how many passes fit in
    the run.  The value is that percentile, by nearest rank, of all samples;
    with fewer than TAIL_BEYOND + 1 guaranteed samples it is the maximum."""
    xs = sorted(samples)
    for p in range(99, 0, -1):
        if guaranteed - math.ceil(guaranteed * p / 100) >= TAIL_BEYOND:
            return xs[math.ceil(len(xs) * p / 100) - 1], p
    return xs[-1], 100


def fresh_import_seconds(env: dict, extra: tuple[str, ...] = ()) -> tuple[float, str]:
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", "import bmdlimits"], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return time.perf_counter() - t, proc.stderr


def import_self_seconds(stderr: str, package: str) -> float:
    """Sum of ``-X importtime`` self times of a package and its submodules."""
    total = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:") and parts[0].split(":")[1].strip().isdigit():
            name = parts[2].strip()
            if name == package or name.startswith(package + "."):
                total += int(parts[0].split(":")[1])
    return total / 1e6


def kernel_microbench() -> dict[str, tuple[float, int, int]]:
    """µs per call of two kernels on fixed grids, median of five timings."""
    from bmdlimits.kernels import PoissonModel, log_no_replacement_miss_prob, poisson_sf

    sf_grid = [(PoissonModel(k * f), k) for k in (10, 100, 1000, 10_000, 100_000) for f in (0.5, 1.0, 1.5)]
    miss_grid = [
        (pop, max(1, int(pop * frac)), draws)
        for pop in (1_000, 100_000, 10_000_000)
        for frac in (0.001, 0.01, 0.1)
        for draws in (10, 100, 900)
    ]
    out = {}
    for name, fn, grid in (
        ("kernels.poisson_sf_us", poisson_sf, sf_grid),
        ("kernels.log_no_replacement_miss_prob_us", log_no_replacement_miss_prob, miss_grid),
    ):
        reps = 200
        times = []
        for _ in range(5):
            t = time.perf_counter()
            for _ in range(reps):
                for args in grid:
                    fn(*args)
            times.append((time.perf_counter() - t) / (reps * len(grid)))
        out[name] = (1e6 * statistics.median(times), 5 * reps * len(grid), 0)
    return out


class Runner:
    """Runs passes of one workload's operations, timing and checking each."""

    def __init__(self, wl, inp: dict, ref: dict, tracer, work: str, first_run: int = 0):
        self.wl, self.inp, self.ref, self.tracer, self.work = wl, inp, ref, tracer, work
        self.speed = speed.Reference(wl.reference)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.run_kind: dict[int, str] = {}  # run id -> untraced | traced | final | probe | rss
        self.extras: dict[str, tuple[float, int, int]] = {}
        self.next_run = first_run
        self.traced = False
        self.child_path: str | None = None  # where a traced CLI child writes its spans
        self.child_rss_mb = 0.0
        self.slowness: list[tuple[int, float]] = []  # host slowness around the ops of the last run_ops

    def run_op(self, op, kind: str) -> float:
        run_id = self.next_run
        self.next_run += 1
        self.run_kind[run_id] = kind
        if self.traced:
            self.child_path = os.path.join(self.work, f"child-{os.getpid()}-{run_id}.json")
            self.tracer.run_id = run_id
            span = self.tracer.open("op:" + op.label)
        ok = True
        t = time.perf_counter()
        try:
            result = op.fn()
        except Exception as exc:  # an operation that raises counts as failed
            ok, result = False, None
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t
        if self.traced:
            self.tracer.close(span, failed=not ok)
            if os.path.exists(self.child_path):
                with open(self.child_path, encoding="utf-8") as fh:
                    payload = json.load(fh)
                os.remove(self.child_path)
                self.tracer.merge(payload, run_id, span)
                self.child_rss_mb = max(payload["rss_mb"].values())
            self.child_path = None
        if ok:
            if self.traced:
                self.tracer.enabled = False  # checks call library functions too
            try:
                op.check(result)
            except Exception as exc:  # a wrong answer, or an answer the check cannot read
                ok = False
                self.errors.append(f"{op.label}: {exc}")
            finally:
                if self.traced:
                    self.tracer.enabled = True
        self.attempted += 1
        self.failed += not ok
        return dt

    def run_ops(self, make_ops, traced: bool, kind: str, after_op=None) -> list[float]:
        """Run the ops ``make_ops()`` builds, built after the tracer is installed
        so that functions they bind are the wrapped ones.  ``after_op(seconds)``
        runs untimed after each op."""
        self.traced = traced and self.tracer is not None
        if self.traced:
            self.tracer.install()
        try:
            lat = []
            ops = make_ops()
            self.slowness = [(0, self.speed.slowness())]
            last = time.perf_counter()
            for i, op in enumerate(ops):
                lat.append(self.run_op(op, kind))
                if i == len(ops) - 1 or time.perf_counter() - last >= speed.SLICE_EVERY_S:
                    self.slowness.append((i + 1, self.speed.slowness()))
                    last = time.perf_counter()
                if after_op is not None:
                    after_op(lat[-1])
            return lat
        finally:
            if self.traced:
                self.tracer.uninstall()
            self.traced = False

    def run_pass(self, traced: bool, kind: str, after_op=None) -> tuple[float, list[float], list[float]]:
        """(wall time, operation latencies, their reference times) of one pass."""
        lat = self.run_ops(lambda: self.wl.ops(self.inp, self.ref, self), traced, kind, after_op)
        return sum(lat), lat, self.speed.times(lat, self.slowness)

    def run_final(self, traced: bool, kind: str = "final") -> None:
        self.run_ops(lambda: self.wl.final_ops(self.inp, self.ref), traced, kind)

    def wide_rss(self) -> None:
        """Peak RSS of a fresh, traced CLI process running the wide scenario,
        and of its simulator workers."""
        import workloads

        def check(result):
            if result[0] != 0:
                raise workloads.Wrong(f"wide scenario CLI exit code {result[0]}")

        argv = ["simulate", "--scenario", self.inp["wide_path"], "--workers", str(workloads.WORKERS)]
        op = workloads.Op("cli:simulate[wide]", lambda: workloads.run_cli(argv, self.child_path), check)
        self.run_ops(lambda: [op], True, "rss")
        self.extras["simulate.peak_rss_mb.wide"] = (self.child_rss_mb, 1, 0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("cli", "solve", "simulate", "sparse"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "bmdlimits", "__init__.py")):
        print(f"error: no bmdlimits sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from layers import PER_LAYER, View
    from tracer import Tracer, peak_rss_kb

    wl = workloads.WORKLOADS[args.workload]
    ref = workloads.load_reference()
    env = workloads.cli_env()
    facts = machine_facts()

    # -- set-up: fresh interpreter + package import, and input generation.  The
    # first sample of each comes before the passes; the others are spread over
    # the measured time, so that set-up and passes see the same machine.
    fresh_import_seconds(env)  # writes bytecode caches and warms the file cache
    imports: list[float] = []  # raw seconds
    gens: list[float] = []
    imports_ref: list[float] = []  # reference seconds (speed.py)
    gens_ref: list[float] = []
    import_speed, gen_speed = speed.Reference("spawn"), speed.Reference("mixed")

    def setup_sample() -> dict:
        _, dt, ref = import_speed.timed(lambda: fresh_import_seconds(env))
        imports.append(dt)
        imports_ref.append(ref)
        if len(gens) * IMPORT_REPEATS < len(imports) * INPUT_REPEATS:
            new, dt, ref = gen_speed.timed(lambda: wl.inputs(args.seed, args.tiny))
            gens.append(dt)
            gens_ref.append(ref)
            return new
        return {}

    inp = setup_sample()
    tracer = Tracer() if args.trace else None
    runner = Runner(wl, inp, ref, tracer, workloads.WORK)

    # -- timed passes, with the set-up samples, within --seconds --------------
    passes: dict[bool, list[float]] = {False: [], True: []}  # raw seconds
    ref_passes: dict[bool, list[float]] = {False: [], True: []}  # reference seconds
    latencies: list[float] = []
    start = time.perf_counter()

    def after_op(_seconds: float) -> None:
        elapsed = time.perf_counter() - start
        if len(imports) < IMPORT_REPEATS and elapsed >= len(imports) * args.seconds / IMPORT_REPEATS:
            setup_sample()

    while True:
        traced = bool(args.trace) and len(passes[False]) > len(passes[True])
        wall, lat, ref_lat = runner.run_pass(traced, "traced" if traced else "untraced", after_op)
        passes[traced].append(wall)
        ref_passes[traced].append(sum(ref_lat))
        if not traced:
            latencies.extend(lat)
        done = len(passes[False]) + len(passes[True])
        next_end = time.perf_counter() - start + statistics.median(passes[traced] or passes[False])
        if done >= MIN_PASSES and next_end > args.seconds:
            break
    while len(imports) < IMPORT_REPEATS:
        setup_sample()
    setup_s = statistics.median(imports_ref) + statistics.median(gens_ref)
    runner.run_final(bool(args.trace))

    wall_s = statistics.median(ref_passes[False])
    p50 = statistics.median(latencies)
    ops_per_pass = len(latencies) // len(passes[False])
    tail_s, tail_p = tail(latencies, MIN_PASSES * ops_per_pass)

    per_layer = {}
    if args.trace:
        runner.extras["import_s"] = (statistics.median(imports_ref), len(imports), 0)
        _, importtime = fresh_import_seconds(env, ("-X", "importtime"))
        runner.extras["import_self_s.scipy_special"] = (import_self_seconds(importtime, "scipy.special"), 1, 0)
        runner.extras["import_self_s.numpy"] = (import_self_seconds(importtime, "numpy"), 1, 0)
        runner.extras.update(kernel_microbench())
        runner.extras["trace.overhead_s"] = (statistics.median(ref_passes[True]) - wall_s, len(passes[True]), 0)
        if args.workload == "simulate":
            runner.wide_rss()
        view = View(tracer, {r for r, k in runner.run_kind.items() if k in ("traced", "final")}, runner.extras)
        readings = {m.name: (m.get(view), "workload") for m in PER_LAYER}
        # layers this workload never called: one traced tiny pass of the owner
        for owner in sorted({m.owner for m in PER_LAYER if readings[m.name][0] is None}):
            probe_wl = workloads.WORKLOADS[owner]
            probe = Runner(probe_wl, probe_wl.inputs(args.seed, True), ref, tracer, workloads.WORK, runner.next_run)
            probe.run_pass(True, "probe")
            probe.run_final(True, "probe")
            if owner == "simulate":
                probe.wide_rss()
            runner.next_run = probe.next_run
            runner.attempted += probe.attempted
            runner.failed += probe.failed
            runner.errors += probe.errors
            probe_runs = {r for r, k in probe.run_kind.items() if k == "probe"}
            pview = View(tracer, probe_runs, {**runner.extras, **probe.extras})
            for m in PER_LAYER:
                if m.owner == owner and readings[m.name][0] is None:
                    readings[m.name] = (m.get(pview), "probe")
        per_layer = readings
        os.makedirs(workloads.WORK, exist_ok=True)
        tracer.write(os.path.join(workloads.WORK, f"trace-{args.workload}-{args.seed}.jsonl"))

    peak_rss_mb = max(peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024

    # -- report ---------------------------------------------------------------
    print(f"# bmdlimits benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"# machine: {json.dumps(facts)}")
    print(f"# closed loop, 1 client, simulator workers <= {workloads.WORKERS}; "
        f"passes untraced={len(passes[False])} traced={len(passes[True])}")
    fail_ratio = runner.failed / max(runner.attempted, 1)
    end_to_end = {
        "setup_s": (setup_s, "s", f"median fresh import {statistics.median(imports_ref):.4f} s of {IMPORT_REPEATS} "
                                  f"+ median inputs {statistics.median(gens_ref):.4f} s of {INPUT_REPEATS}, reference"),
        "wall_s": (wall_s, "s", f"median reference time of {len(passes[False])} untraced passes"),
        "setup_raw_s": (statistics.median(imports) + statistics.median(gens), "s", "setup_s in raw seconds"),
        "wall_raw_s": (statistics.median(passes[False]), "s", "wall_s in raw seconds"),
        "call_p50_s": (p50, "s", f"median of {len(latencies)} operations"),
        "call_tail_s": (tail_s, "s", f"p{tail_p} of {len(latencies)} operations"),
        "peak_rss_mb": (peak_rss_mb, "MB", "max of this process and its children"),
    }
    print(f"# untraced pass times (s): {' '.join(f'{x:.4f}' for x in passes[False])}")
    print(f"# fresh import times (s): {' '.join(f'{x:.4f}' for x in imports)}")
    for what, ref in (("passes", runner.speed), ("imports", import_speed)):
        print(f"# host slowness around the {what} (speed.py, {ref.kind}): median {statistics.median(ref.taken):.4f} "
              f"of {len(ref.taken)}")
    print("# end-to-end (untraced passes):")
    for name, (value, unit, note) in end_to_end.items():
        print(f"#   {name:<14} {value:>12.6g} {unit:<5} {note}")
    print(f"#   {'fail_ratio':<14} {fail_ratio:>12.6g} {'':<5} {runner.failed} failed of {runner.attempted} operations")
    for err in runner.errors[:10]:
        print(f"failed: {err}", file=sys.stderr)
    if args.trace:
        print("# per-layer (traced): name value unit calls failed source")
        for m in PER_LAYER:
            reading, source = per_layer[m.name]
            if reading is None:
                print(f"#   {m.name:<45} {'n/a':>12} {m.unit}")
                continue
            value, calls, failed = reading
            print(f"#   {m.name:<45} {value:>12.6g} {m.unit:<5} {calls:>6} {failed:>3} {source}")
        metrics = {
            m.name: {"value": per_layer[m.name][0][0], "unit": m.unit}
            for m in PER_LAYER if per_layer[m.name][0] is not None
        }
    else:
        metrics = {name: {"value": end_to_end[name][0], "unit": end_to_end[name][1]} for name in BOUNDED}
    print("# reported: " + json.dumps({
        **{name: {"value": value, "unit": unit} for name, (value, unit, _) in end_to_end.items()},
        "fail_ratio": {"value": fail_ratio, "unit": "1"},
    }))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
